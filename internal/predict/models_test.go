package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// syntheticSeries builds a series over m cells with a deterministic
// cross-cell dependency: activity in cell 0 at vector p forces activity in
// cell 1 at vector p+1. Cell 0 itself follows a period-3 pattern, and the
// remaining cells carry seeded noise.
func syntheticSeries(m, k, vectors int, seed int64) []*tensor.Matrix {
	r := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Matrix, vectors)
	for p := 0; p < vectors; p++ {
		out[p] = tensor.New(m, k)
	}
	for p := 0; p < vectors; p++ {
		if p%3 == 0 {
			for j := 0; j < k; j++ {
				out[p].Set(0, j, 1)
			}
			if p+1 < vectors {
				for j := 0; j < k; j++ {
					out[p+1].Set(1, j, 1)
				}
			}
		}
		for c := 2; c < m; c++ {
			for j := 0; j < k; j++ {
				if r.Float64() < 0.15 {
					out[p].Set(c, j, 1)
				}
			}
		}
	}
	return out
}

func windowsFrom(vectors []*tensor.Matrix, history int) []Window {
	var ws []Window
	for end := history; end < len(vectors); end++ {
		ws = append(ws, Window{Inputs: vectors[end-history : end], Target: vectors[end], Index: end})
	}
	return ws
}

func trainTestAP(t *testing.T, p Predictor, train, test []Window) float64 {
	t.Helper()
	res := Evaluate(p, train, test)
	if math.IsNaN(res.AP) || res.AP < 0 || res.AP > 1 {
		t.Fatalf("%s: AP out of range: %v", p.Name(), res.AP)
	}
	if res.TrainTime <= 0 {
		t.Errorf("%s: train time not measured", p.Name())
	}
	return res.AP
}

func TestLSTMPredictorLearnsPeriodicPattern(t *testing.T) {
	vectors := syntheticSeries(4, 2, 60, 1)
	ws := windowsFrom(vectors, 6)
	train, test := SplitWindows(ws, 0.8)
	m := NewLSTMPredictor(2, 12, TrainConfig{Epochs: 25, LR: 0.02, Seed: 1})
	ap := trainTestAP(t, m, train, test)
	// Cell 0's period-3 pattern is visible to the LSTM, so it must beat
	// the ~0.3 random prevalence baseline comfortably.
	if ap < 0.5 {
		t.Errorf("LSTM AP = %v, want ≥ 0.5 on a learnable pattern", ap)
	}
	if m.ParamCount() == 0 {
		t.Error("LSTM has no parameters")
	}
}

func TestGraphWaveNetLearns(t *testing.T) {
	vectors := syntheticSeries(4, 2, 60, 2)
	ws := windowsFrom(vectors, 6)
	train, test := SplitWindows(ws, 0.8)
	m := NewGraphWaveNet(4, 2, 10, 4, TrainConfig{Epochs: 25, LR: 0.02, Seed: 2})
	ap := trainTestAP(t, m, train, test)
	if ap < 0.5 {
		t.Errorf("Graph-WaveNet AP = %v, want ≥ 0.5", ap)
	}
	if m.ParamCount() == 0 {
		t.Error("Graph-WaveNet has no parameters")
	}
}

func TestDDGNNLearnsCrossCellDependency(t *testing.T) {
	vectors := syntheticSeries(4, 2, 60, 3)
	ws := windowsFrom(vectors, 6)
	train, test := SplitWindows(ws, 0.8)
	m := NewDDGNN(DDGNNConfig{K: 2, Hidden: 12, Embed: 6, Train: TrainConfig{Epochs: 25, LR: 0.02, Seed: 3}})
	ap := trainTestAP(t, m, train, test)
	if ap < 0.55 {
		t.Errorf("DDGNN AP = %v, want ≥ 0.55 with cross-cell signal", ap)
	}
	if m.ParamCount() == 0 {
		t.Error("DDGNN has no parameters")
	}
}

func TestDDGNNAdjacencyIsRowStochastic(t *testing.T) {
	m := NewDDGNN(DDGNNConfig{K: 2, Train: TrainConfig{Seed: 4}})
	inputs := syntheticSeries(5, 2, 6, 4)
	adj := m.Adjacency(inputs)
	if adj.Rows != 5 || adj.Cols != 5 {
		t.Fatalf("adjacency shape %dx%d", adj.Rows, adj.Cols)
	}
	for i := 0; i < adj.Rows; i++ {
		sum := 0.0
		for j := 0; j < adj.Cols; j++ {
			v := adj.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("adjacency entry out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("adjacency row %d sums to %v", i, sum)
		}
	}
}

func TestDDGNNAdjacencyIsDynamic(t *testing.T) {
	// Different windows must produce different dependency matrices — the
	// property that distinguishes DDGNN from Graph-WaveNet.
	m := NewDDGNN(DDGNNConfig{K: 2, Train: TrainConfig{Seed: 5}})
	a := syntheticSeries(4, 2, 6, 6)
	b := syntheticSeries(4, 2, 6, 7)
	// Perturb b to guarantee a different summary.
	b[0].Set(3, 1, 1)
	b[2].Set(2, 0, 1)
	adjA := m.Adjacency(a)
	adjB := m.Adjacency(b)
	diff := 0.0
	for i := range adjA.Data {
		diff += math.Abs(adjA.Data[i] - adjB.Data[i])
	}
	if diff < 1e-9 {
		t.Error("adjacency did not change across windows; dependency module is static")
	}
}

// TestStaticAdjacencyIsWhatItPropagatesOver: the ablation's Adjacency is the
// identity its forward propagates over, not the learned 𝒜_t its dependency
// module would give.
func TestStaticAdjacencyIsWhatItPropagatesOver(t *testing.T) {
	m := NewStaticAdjacencyDDGNN(DDGNNConfig{K: 2, Train: TrainConfig{Seed: 4}})
	inputs := syntheticSeries(5, 2, 6, 4)
	adj := m.Adjacency(inputs)
	if firstDiff(adj, tensor.Eye(5)) >= 0 {
		t.Fatalf("ablation adjacency %v, want the identity", adj.Data)
	}
	if firstDiff(m.dependencyMatrix(inputs).Val, adj) < 0 {
		t.Fatal("the learned adjacency is the identity: the test cannot tell them apart")
	}
	got, want := m.Predict(inputs), m.propagate(inputs, nil, nn.Leaf(adj)).Val
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("probability %d is %v, propagated over Adjacency %v", i, got.Data[i], want.Data[i])
	}
}

func TestPredictionsAreProbabilities(t *testing.T) {
	vectors := syntheticSeries(4, 2, 20, 8)
	ws := windowsFrom(vectors, 6)
	models := []Predictor{
		NewLSTMPredictor(2, 8, TrainConfig{Epochs: 2, Seed: 8}),
		NewGraphWaveNet(4, 2, 8, 4, TrainConfig{Epochs: 2, Seed: 8}),
		NewDDGNN(DDGNNConfig{K: 2, Hidden: 8, Embed: 4, Train: TrainConfig{Epochs: 2, Seed: 8}}),
		NewStaticAdjacencyDDGNN(DDGNNConfig{K: 2, Hidden: 8, Embed: 4, Train: TrainConfig{Epochs: 2, Seed: 8}}),
	}
	for _, m := range models {
		m.Fit(ws[:5])
		out := m.Predict(ws[6].Inputs)
		if out.Rows != 4 || out.Cols != 2 {
			t.Fatalf("%s: output shape %dx%d", m.Name(), out.Rows, out.Cols)
		}
		for _, v := range out.Data {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s: prediction %v not a probability", m.Name(), v)
			}
		}
	}
}

func TestPredictorsDeterministic(t *testing.T) {
	vectors := syntheticSeries(4, 2, 30, 9)
	ws := windowsFrom(vectors, 6)
	train, _ := SplitWindows(ws, 0.8)
	run := func() *tensor.Matrix {
		m := NewDDGNN(DDGNNConfig{K: 2, Hidden: 8, Embed: 4, Train: TrainConfig{Epochs: 3, Seed: 10}})
		m.Fit(train)
		return m.Predict(ws[len(ws)-1].Inputs)
	}
	a, b := run(), run()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must give identical predictions")
		}
	}
}

func TestEvaluateMeasuresPerWindowTestTime(t *testing.T) {
	vectors := syntheticSeries(3, 2, 30, 11)
	ws := windowsFrom(vectors, 5)
	train, test := SplitWindows(ws, 0.7)
	m := NewLSTMPredictor(2, 6, TrainConfig{Epochs: 1, Seed: 11})
	res := Evaluate(m, train, test)
	if len(res.Scores) != len(test)*3*2 {
		t.Errorf("scores = %d, want %d", len(res.Scores), len(test)*3*2)
	}
	if len(res.Scores) != len(res.Labels) {
		t.Error("scores/labels length mismatch")
	}
	if res.Model != "LSTM" {
		t.Errorf("model name = %q", res.Model)
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Epochs <= 0 || c.LR <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Explicit values survive.
	c = TrainConfig{Epochs: 7, LR: 0.5}.withDefaults()
	if c.Epochs != 7 || c.LR != 0.5 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
}
