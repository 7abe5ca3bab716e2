// Package tvf implements the Task Value Function of Section IV-B: a learned
// state-action value TVF(s_t, a_t; θ) trained by Q-learning-style regression
// (Eq. 12) on (state, action, opt) samples gathered by the exact DFSearch
// (Algorithm 1). At assignment time, DFSearch_TVF (Algorithm 2) picks the
// sequence maximizing the predicted value, eliminating backtracking.
//
// The state is the set of remaining workers and tasks; the action is a
// (worker, sequence) pair. Both are summarized by a fixed-length feature
// vector; the value model is a small two-layer perceptron.
package tvf

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FeatureDim is the length of the feature vector produced by Featurize.
const FeatureDim = 12

// State is the RL state s_t: the remaining available workers and unassigned
// tasks at a search node (the paper's (W_N + W_C, S)).
type State struct {
	Workers []*core.Worker
	Tasks   []*core.Task
	Now     float64
}

// Action is the RL action a_t: assigning sequence Seq to Worker.
type Action struct {
	Worker *core.Worker
	Seq    core.Sequence
}

// Sample is one training triple (s_t, a_t, opt) emitted by DFSearch.
type Sample struct {
	Features [FeatureDim]float64
	// Opt is the best cumulative number of assigned tasks achievable from
	// this state after taking the action (the regression target V).
	Opt float64
}

// Featurize summarizes a state-action pair. Features are scaled to keep
// magnitudes near [0, 1] so one learning rate fits all dimensions:
//
//	0  bias
//	1  |q| — immediate reward of the action
//	2  remaining worker count (÷16)
//	3  remaining task count (÷32)
//	4  sequence completion slack within the worker's window
//	5  total travel time of the sequence (÷600 s)
//	6  tasks still reachable from the sequence's end location (÷16)
//	7  contention: other workers that can reach a task of q (÷16)
//	8  mean expiry slack of q's tasks (÷300 s)
//	9  fraction of q that is virtual (predicted demand)
//	10 task density within 0.5 km of the end location (÷16)
//	11 remaining availability of the worker after q (÷3600 s)
func Featurize(st State, a Action, tm geo.TravelModel) [FeatureDim]float64 {
	var f [FeatureDim]float64
	f[0] = 1
	f[1] = float64(len(a.Seq))
	f[2] = float64(len(st.Workers)) / 16
	f[3] = float64(len(st.Tasks)) / 32

	w := a.Worker
	end := w.Loc
	completion := st.Now
	travel := 0.0
	expSlack := 0.0
	virtual := 0
	loc, t := w.Loc, st.Now
	for _, s := range a.Seq {
		leg := tm.Time(loc, s.Loc)
		travel += leg
		t += leg
		if t < s.Pub {
			t = s.Pub
		}
		expSlack += s.Exp - t
		if s.Virtual {
			virtual++
		}
		loc = s.Loc
	}
	completion = t
	end = loc

	if win := w.Off - st.Now; win > 0 {
		f[4] = (w.Off - completion) / win
	}
	f[5] = travel / 600

	reachable, near := 0, 0
	for _, s := range st.Tasks {
		d := geo.Dist(end, s.Loc)
		if d <= w.Reach && s.Exp > completion+tm.TimeForDist(d) {
			reachable++
		}
		if d <= 0.5 {
			near++
		}
	}
	f[6] = float64(reachable) / 16

	contention := 0
	for _, other := range st.Workers {
		if other.ID == w.ID {
			continue
		}
		for _, s := range a.Seq {
			if geo.Dist(other.Loc, s.Loc) <= other.Reach {
				contention++
				break
			}
		}
	}
	f[7] = float64(contention) / 16

	if n := len(a.Seq); n > 0 {
		f[8] = expSlack / float64(n) / 300
		f[9] = float64(virtual) / float64(n)
	}
	f[10] = float64(near) / 16
	f[11] = math.Max(0, w.Off-completion) / 3600
	return f
}

// Model is the TVF approximator: a two-layer MLP with tanh hidden units and
// a linear scalar output.
type Model struct {
	params *nn.Params
	l1, l2 *nn.Linear
}

// NewModel allocates a TVF model with the given hidden width.
func NewModel(hidden int, seed int64) *Model {
	if hidden <= 0 {
		hidden = 16
	}
	p := nn.NewParams(seed + 404)
	return &Model{
		params: p,
		l1:     nn.NewLinear(p, FeatureDim, hidden),
		l2:     nn.NewLinear(p, hidden, 1),
	}
}

func (m *Model) forward(x *nn.Node) *nn.Node {
	return m.l2.Forward(nn.Tanh(m.l1.Forward(x)))
}

// Predict returns TVF(s_t, a_t; θ) for one featurized pair.
func (m *Model) Predict(features [FeatureDim]float64) float64 {
	y := nn.Release(m.forward(nn.Temp(tensor.FromSlice(1, FeatureDim, features[:]))))
	v := y.Data[0]
	tensor.Recycle(y)
	return v
}

// Batch is the caller-owned workspace of PredictBatch: the input rows, the
// hidden layer and the scores, grown to the widest batch scored so far. A
// Batch serves one goroutine at a time; the zero value is ready to use.
type Batch struct {
	x, h, y tensor.Matrix
}

// PredictBatch scores many feature vectors in one forward pass into b and
// returns the scores, b's until its next use (nil for no features). It
// computes tanh(x·W₁+b₁)·W₂+b₂ with the tensor kernels the training graph
// runs, in the graph's order, so every score is bit-for-bit what Predict
// gives; but it builds no graph, and once b has grown it allocates nothing.
func (m *Model) PredictBatch(b *Batch, features [][FeatureDim]float64) []float64 {
	n := len(features)
	if n == 0 {
		return nil
	}
	w1, b1, w2, b2 := m.l1.W.Val, m.l1.B.Val, m.l2.W.Val, m.l2.B.Val
	resize(&b.x, n, FeatureDim)
	for i, f := range features {
		copy(b.x.Data[i*FeatureDim:], f[:])
	}
	resize(&b.h, n, w1.Cols)
	tensor.MatMulAccum(&b.h, &b.x, w1)
	for i := 0; i < n; i++ {
		row := b.h.Data[i*w1.Cols : (i+1)*w1.Cols]
		for j, v := range row {
			row[j] = v + b1.Data[j]
		}
	}
	fmath.TanhSlice(b.h.Data, b.h.Data)
	resize(&b.y, n, 1)
	tensor.MatMulAccum(&b.y, &b.h, w2)
	for i := range b.y.Data {
		b.y.Data[i] += b2.Data[0]
	}
	return b.y.Data
}

// resize makes m a zero rows×cols matrix on its own storage, grown if needed.
func resize(m *tensor.Matrix, rows, cols int) {
	m.Rows, m.Cols = rows, cols
	m.Data = slices.Grow(m.Data[:0], rows*cols)[:rows*cols]
	clear(m.Data)
}

// TrainConfig controls TVF fitting.
type TrainConfig struct {
	Epochs int
	Seed   int64
}

// The mini-batch size and Adam's learning rate of every TVF fit.
const (
	batchSize = 64
	learnRate = 0.01
)

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	return c
}

// Train fits the model to the samples by minimizing the squared loss of
// Eq. 12 over mini-batches drawn uniformly at random from U (the stored
// experience), exactly the paper's update rule, with Adam and gradients
// clipped to norm 5 (nn.Fit). It returns the final epoch's mean loss. Every
// mini-batch is laid out in the same two matrices: Backward is done with a
// batch before the next is built.
func (m *Model) Train(samples []Sample, cfg TrainConfig) float64 {
	cfg = cfg.withDefaults()
	var x, y tensor.Matrix
	return nn.Fit(m.params, nn.NewAdam(learnRate), cfg.Seed+505, cfg.Epochs, len(samples), batchSize, func(batch []int) *nn.Node {
		resize(&x, len(batch), FeatureDim)
		resize(&y, len(batch), 1)
		for bi, si := range batch {
			copy(x.Data[bi*FeatureDim:(bi+1)*FeatureDim], samples[si].Features[:])
			y.Data[bi] = samples[si].Opt
		}
		return nn.MSE(m.forward(nn.Leaf(&x)), &y)
	})
}

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int { return m.params.Count() }
