package predict

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The forwards the three graph predictors ran before nn.LastStep: every
// layer of the temporal trunk evaluated at every window position, the last
// position read. Kept as the oracle the receptive-field forward must equal
// bit for bit.

func fullTrunk(lift *nn.Linear, temp1, temp2 *nn.GatedCausalConv, inputs []*tensor.Matrix) (last, skip *nn.Node) {
	xs := make([]*nn.Node, len(inputs))
	for i, x := range inputs {
		xs[i] = lift.Forward(nn.Leaf(x))
	}
	skip = xs[len(xs)-1]
	xs = temp1.Forward(xs)
	xs = temp2.Forward(xs)
	return xs[len(xs)-1], skip
}

func (m *DDGNN) fullForward(inputs []*tensor.Matrix, adj *nn.Node) *nn.Node {
	last, skip := fullTrunk(m.lift, m.temp1, m.temp2, inputs)
	z := nn.Add(last, nn.MatMul(skip, m.resid))
	z = nn.APPNP(z, adj, m.alpha, m.hops)
	h := nn.ReLU(m.hidden.Forward(z))
	return nn.Sigmoid(m.out.Forward(h))
}

func (m *GraphWaveNet) fullForward(inputs []*tensor.Matrix) *nn.Node {
	z, _ := fullTrunk(m.lift, m.temp1, m.temp2, inputs)
	adj := m.adaptiveAdjacency()
	diffused := nn.Add(
		nn.Add(nn.MatMul(adj, nn.MatMul(z, m.wFwd)), nn.MatMul(nn.Transpose(adj), nn.MatMul(z, m.wBwd))),
		nn.MatMul(z, m.wSelf),
	)
	h := nn.ReLU(m.hidden.Forward(nn.ReLU(diffused)))
	return nn.Sigmoid(m.out.Forward(h))
}

// graphModel is one of the three predictors with a causal trunk, the forward
// it runs now, the full-sequence one it ran before and the memo its Predict
// goes through.
type graphModel struct {
	Predictor
	params *nn.Params
	cfg    TrainConfig
	full   func([]*tensor.Matrix) *nn.Node
	memo   *nn.StepMemo
}

func graphModels(cells, k int, cfg TrainConfig) []graphModel {
	d := NewDDGNN(DDGNNConfig{K: k, Hidden: 6, Embed: 4, Train: cfg})
	s := NewStaticAdjacencyDDGNN(DDGNNConfig{K: k, Hidden: 6, Embed: 4, Train: cfg})
	g := NewGraphWaveNet(cells, k, 6, 4, cfg)
	return []graphModel{
		{d, d.params, cfg, func(in []*tensor.Matrix) *nn.Node {
			return d.fullForward(in, nn.NormalizeAdjacency(d.dependencyMatrix(in)))
		}, &d.memo},
		{s, s.params, cfg, func(in []*tensor.Matrix) *nn.Node {
			return s.fullForward(in, nn.Leaf(tensor.Eye(in[0].Rows)))
		}, &s.memo},
		{g, g.params, cfg, g.fullForward, &g.memo},
	}
}

func randomWindow(r *rand.Rand, cells, k, length int) []*tensor.Matrix {
	w := make([]*tensor.Matrix, length)
	for i := range w {
		w[i] = tensor.New(cells, k)
		for j := range w[i].Data {
			if r.Float64() < 0.3 {
				w[i].Data[j] = 1
			}
		}
	}
	return w
}

// TestLastStepForwardMatchesFullSequence: predicted probabilities are equal
// with == to the full-sequence forward's, for all three models, on random
// windows of the serving length (8), of lengths where zero padding reaches
// into the receptive field (1, 2, 5) and of one longer than it (12).
func TestLastStepForwardMatchesFullSequence(t *testing.T) {
	const cells, k = 5, 3
	r := rand.New(rand.NewSource(41))
	for _, m := range graphModels(cells, k, TrainConfig{Seed: 3}) {
		for _, length := range []int{1, 2, 5, 8, 12} {
			for trial := 0; trial < 5; trial++ {
				w := randomWindow(r, cells, k, length)
				got, want := m.Predict(w), m.full(w).Val
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s, window of %d: probability %d is %v, full-sequence forward %v",
							m.Name(), length, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestLastStepFitMatchesFullSequence: two epochs of training through the
// receptive-field forward leave every parameter equal with == to training
// through the full-sequence forward — the nodes LastStep skips were never
// reachable from the loss, so they never carried gradient.
func TestLastStepFitMatchesFullSequence(t *testing.T) {
	const cells, k = 5, 3
	cfg := TrainConfig{Epochs: 2, LR: 0.02, WeightDecay: 1e-3, Seed: 5}
	train := windowsFrom(syntheticSeries(cells, k, 30, 9), 8)
	got, want := graphModels(cells, k, cfg), graphModels(cells, k, cfg)
	for i := range got {
		got[i].Fit(train)
		full := want[i].full
		fitModel(want[i].params, cfg, func(w Window) *nn.Node { return full(w.Inputs) }, train)
		moved := false
		for p, node := range got[i].params.All() {
			ref := want[i].params.All()[p]
			for j := range ref.Val.Data {
				if node.Val.Data[j] != ref.Val.Data[j] {
					t.Fatalf("%s: parameter %d[%d] is %v, full-sequence training %v",
						got[i].Name(), p, j, node.Val.Data[j], ref.Val.Data[j])
				}
				moved = moved || ref.Val.Data[j] != 0 && ref.Grad != nil && ref.Grad.Data[j] != 0
			}
		}
		if !moved {
			t.Fatalf("%s: training moved nothing — the comparison is vacuous", got[i].Name())
		}
	}
}

// recordingModel keeps a copy of the window it is handed.
type recordingModel struct {
	constModel
	window []*tensor.Matrix
}

func (m *recordingModel) Predict(in []*tensor.Matrix) *tensor.Matrix {
	m.window = m.window[:0]
	for _, x := range in {
		m.window = append(m.window, x.Clone())
	}
	return m.constModel.Predict(in)
}

// TestForecastWindowMatchesBuildSeries: the window the forecaster builds in
// place is the tail of the series BuildSeries builds from T0 — the same bins
// cell for cell — near T0 and 1,000 vectors past it, and again when the same
// Forecaster (so the same matrices) is asked at another instant.
func TestForecastWindowMatchesBuildSeries(t *testing.T) {
	cfg := testConfig() // span 15
	cfg.T0 = -40
	r := rand.New(rand.NewSource(17))
	m := &recordingModel{constModel: constModel{p: 0.5}}
	f := NewForecaster(m, cfg, 4, 0.85, 40)
	for _, now := range []float64{21, 20, 95.5, 15_000, 15_007.5, 14_999} {
		var tasks []*core.Task
		for i := 0; i < 200; i++ {
			tasks = append(tasks, taskAt(i, 2.4*r.Float64()-0.2, 2.4*r.Float64()-0.2, now-150+160*r.Float64()))
		}
		series := BuildSeries(cfg, tasks, now)
		vts := f.Virtuals(tasks, now)
		if series.P() < f.History {
			if vts != nil {
				t.Fatalf("now=%v: forecast with %d of %d vectors of history", now, series.P(), f.History)
			}
			continue
		}
		for i, want := range series.Vectors[series.P()-f.History:] {
			for j := range want.Data {
				if m.window[i].Data[j] != want.Data[j] {
					t.Fatalf("now=%v: window vector %d entry %d is %v, BuildSeries %v", now, i, j, m.window[i].Data[j], want.Data[j])
				}
			}
		}
	}
}

// TestForecastCostIndependentOfUptime is the regression test for forecasts
// that slowed down and allocated more with every hour since T0 (a Series
// since T0 per call): the same tasks in the window cost the same allocations
// and yield the same virtual tasks 1 h and 100 h after T0.
func TestForecastCostIndependentOfUptime(t *testing.T) {
	cfg := testConfig() // span 15 s: 240 and 24,000 vectors since T0
	type virtual struct {
		cell   int
		offset float64
	}
	measure := func(now float64) (allocs float64, out []virtual) {
		var tasks []*core.Task
		for i := 0; i < 40; i++ {
			tasks = append(tasks, taskAt(i, float64(i%2)+0.5, float64(i/2%2)+0.5, now-float64(2*i)-1))
		}
		// Probability by cell, so some cells clear the threshold and the
		// output is not all-or-nothing.
		model := &cellModel{p: []float64{0.9, 0.1, 0.95, 0.2}}
		f := NewForecaster(model, cfg, 4, 0.85, 40)
		allocs = testing.AllocsPerRun(20, func() { f.Virtuals(tasks, now) })
		for _, v := range f.Virtuals(tasks, now) {
			out = append(out, virtual{v.Cell, v.Pub - now})
		}
		return allocs, out
	}
	nearAllocs, near := measure(3600)
	farAllocs, far := measure(360_000)
	if nearAllocs != farAllocs {
		t.Fatalf("a forecast allocates %v times 1 h after T0 and %v times 100 h after", nearAllocs, farAllocs)
	}
	if len(near) == 0 || fmt.Sprint(near) != fmt.Sprint(far) {
		t.Fatalf("virtual tasks (cell, seconds from now) differ with uptime:\n  1 h: %v\n100 h: %v", near, far)
	}
}

// cellModel predicts a fixed probability per cell.
type cellModel struct{ p []float64 }

func (c *cellModel) Name() string   { return "cell" }
func (c *cellModel) Fit(_ []Window) {}
func (c *cellModel) Predict(in []*tensor.Matrix) *tensor.Matrix {
	out := tensor.New(in[0].Rows, in[0].Cols)
	for i := range out.Data {
		out.Data[i] = c.p[i/out.Cols]
	}
	return out
}
