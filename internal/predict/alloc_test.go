package predict

import (
	"testing"

	"repro/internal/core"
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

// TestDDGNNFitStepAllocs: a warm training step of the DDGNN allocates
// nothing, whatever the size of its graph (several hundred operations): what
// a Fit over 24 windows allocates beyond a Fit over 8 is under 1 object a
// step. The trunk's tables come from a pool (LastStep without a memo).
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
	if perStep >= 1 {
		t.Errorf("a warm training step allocated %.2f objects, want under 1", perStep)
	}
}

// TestForecastAllocs: a warm forecast allocates what it returns — the task
// slice and one task a virtual task — and nothing else: the probability
// matrix the model returns goes back to the tensor pool once read. Both faces
// are held, the Forecaster and the scenario sampler at K = 1, which takes the
// same path up to the draws; each forecast repeats one window, so the memo
// carries every trunk value and the output is the same size every call.
func TestForecastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, _ := predictFixture()
	last := pinnedStream()[pinnedRefreshes-1]
	f := NewForecaster(m, pinnedCfg, pinnedHistory, 0.5, 40)
	s := NewScenarioSampler(NewForecaster(m, pinnedCfg, pinnedHistory, 0.5, 40), 1, 3)
	for _, c := range []struct {
		name     string
		virtuals func([]*core.Task, float64) []*core.Task
	}{{"forecaster", f.Virtuals}, {"sampler/K=1", s.Virtuals}} {
		n := len(c.virtuals(last.tasks, last.now))
		if n == 0 {
			t.Fatalf("%s: no virtual task: the output is not what the count is about", c.name)
		}
		got := fewestAllocs(20, func() { c.virtuals(last.tasks, last.now) })
		if want := float64(1 + n); got != want {
			t.Errorf("%s: a warm forecast allocated %.1f objects, want %.0f (a slice and %d tasks)", c.name, got, want, n)
		}
	}
}
