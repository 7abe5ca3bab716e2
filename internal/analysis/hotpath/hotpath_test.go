package hotpath_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotpath"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, hotpath.Analyzer, "hotfix")
}
