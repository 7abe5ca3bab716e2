package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "stream", "freepkg", "tvf")
}

func TestCritical(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/assign":   true,
		"repro/internal/dispatch": true,
		"wire":                    true,
		"repro/internal/obs":      false,
		"repro/cmd/datawa-serve":  false,
		"repro/internal/analysis": false,
	} {
		if got := determinism.Critical(path); got != want {
			t.Errorf("Critical(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestPinned(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/nn":       true,
		"repro/internal/tensor":   true,
		"repro/internal/predict":  true,
		"repro/internal/tvf":      true,
		"repro/internal/workload": true,
		"repro/internal/fmath":    false,
		"repro/internal/obs":      false,
		"repro/internal/assign":   false,
	} {
		if got := determinism.Pinned(path); got != want {
			t.Errorf("Pinned(%q) = %v, want %v", path, got, want)
		}
	}
}
