package guarded_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/guarded"
)

func TestGuarded(t *testing.T) {
	analysistest.Run(t, guarded.Analyzer, "guardfix")
}
