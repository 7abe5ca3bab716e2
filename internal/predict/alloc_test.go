package predict

import (
	"testing"

	"repro/internal/tensor"
)

// fewestAllocs is testing.AllocsPerRun's average over runs calls of f, the
// lowest of three tries: a garbage collection empties the node and tensor
// pools, and the one try it lands in pays to refill them.
func fewestAllocs(runs int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 0; i < 2; i++ {
		best = min(best, testing.AllocsPerRun(runs, f))
	}
	return best
}

// TestDDGNNPredictAllocs: a warm DDGNN Predict allocates its output, a matrix
// and its storage, and nothing else: the graph's nodes and every other value
// come out of the pools, and the trunk's scratch is the memo's. Both ways the
// memo meets a window are held, a slide and a window it carries nothing of.
func TestDDGNNPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, _ := predictFixture()
	series := syntheticSeries(36, 3, 60, 23)
	for _, c := range []struct {
		name   string
		window func(i int) []*tensor.Matrix
	}{
		{"sliding", func(i int) []*tensor.Matrix { j := i % 50; return series[j : j+8] }},
		{"cold", func(i int) []*tensor.Matrix { j := 8 * (i % 2); return series[j : j+8] }},
	} {
		i := 0
		predict := func() { m.Predict(c.window(i)); i++ }
		for range 4 {
			predict() // warm the pools
		}
		if got := fewestAllocs(40, predict); got > 2 {
			t.Errorf("%s: a warm Predict allocated %.1f objects, want 2 (its output)", c.name, got)
		}
	}
}

// TestDDGNNFitStepAllocs: a warm training step of the DDGNN allocates a
// handful of objects, whatever the size of its graph (several hundred
// operations): what a Fit over 24 windows allocates beyond a Fit over 8 is
// under 4 objects a step.
func TestDDGNNFitStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ws := windowsFrom(syntheticSeries(36, 3, 40, 21), 8)
	m := NewDDGNN(DDGNNConfig{K: 3, Hidden: 16, Embed: 8, Train: TrainConfig{Epochs: 1, Seed: 21}})
	m.Fit(ws) // warm the pools
	short := fewestAllocs(5, func() { m.Fit(ws[:8]) })
	long := fewestAllocs(5, func() { m.Fit(ws[:24]) })
	perStep := (long - short) / 16
	t.Logf("Fit over 8 windows: %.0f objects, over 24: %.0f; %.2f a step", short, long, perStep)
	if perStep >= 4 {
		t.Errorf("a warm training step allocated %.2f objects, want under 4", perStep)
	}
}
