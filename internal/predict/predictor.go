package predict

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Predictor is a trainable one-step-ahead task demand model. Fit trains on
// the given windows; Predict maps a history window (a slice of M×K binary
// matrices) to an M×K matrix of occurrence probabilities for the next
// vector. The matrix is the caller's: the model keeps no reference to it, so
// the caller may hand it to tensor.Recycle once it is done reading.
type Predictor interface {
	Name() string
	Fit(train []Window)
	Predict(inputs []*tensor.Matrix) *tensor.Matrix
}

// TrainConfig bundles the optimization hyperparameters shared by the three
// models. Zero values are replaced by defaults.
type TrainConfig struct {
	Epochs   int
	LR       float64
	ClipNorm float64
	// WeightDecay is the decoupled L2 shrinkage passed to Adam.
	WeightDecay float64
	Seed        int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	return c
}

// fitModel trains params on the windows through nn.Fit: one window a step,
// BCE loss, Adam with the configuration's weight decay.
func fitModel(params *nn.Params, cfg TrainConfig, forward func(Window) *nn.Node, train []Window) {
	cfg = cfg.withDefaults()
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	nn.Fit(params, opt, cfg.ClipNorm, cfg.Seed+909, cfg.Epochs, len(train), 1, func(run []int) *nn.Node {
		w := train[run[0]]
		return nn.BCE(forward(w), w.Target)
	})
}

// memoised is the shell of the graph models, DDGNN and Graph-WaveNet, whose
// Predict carries the temporal trunk's values from one call to the next
// (nn.StepMemo): the parameters, the training settings, the model's forward
// and the memo, under a lock.
type memoised struct {
	params *nn.Params
	cfg    TrainConfig
	// net builds the model's graph for a window, through memo when not nil.
	net func(inputs []*tensor.Matrix, memo *nn.StepMemo) *nn.Node

	mu   sync.Mutex
	memo nn.StepMemo // guarded by mu
}

// Fit implements Predictor. It empties the memo: the parameters move.
func (m *memoised) Fit(train []Window) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memo.Reset()
	fitModel(m.params, m.cfg, func(w Window) *nn.Node { return m.net(w.Inputs, nil) }, train)
}

// Predict implements Predictor. Consecutive calls share the memo, so a window
// slid by one since the last call costs one new step per layer.
func (m *memoised) Predict(inputs []*tensor.Matrix) *tensor.Matrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	return nn.Release(m.net(inputs, &m.memo))
}

// ParamCount returns the number of trainable scalars, for diagnostics.
func (m *memoised) ParamCount() int { return m.params.Count() }

// Evaluate trains p on the train windows and scores it on the test windows,
// measuring wall-clock training and inference (testing) time, and computing
// Average Precision per the paper's protocol. The test windows are predicted
// in order, so the testing time of a model whose trunk carries values from
// one window to the next (DDGNN and Graph-WaveNet, through nn.StepMemo) is
// that of streaming inference: consecutive windows slid by the stride. The
// LSTM recomputes every window.
func Evaluate(p Predictor, train, test []Window) EvalResult {
	res := EvalResult{Model: p.Name()}
	start := time.Now()
	p.Fit(train)
	res.TrainTime = time.Since(start)

	start = time.Now()
	for _, w := range test {
		probs := p.Predict(w.Inputs)
		for i, v := range probs.Data {
			res.Scores = append(res.Scores, v)
			res.Labels = append(res.Labels, w.Target.Data[i] > 0.5)
		}
	}
	res.TestTime = time.Since(start)
	if len(test) > 0 {
		res.TestTime /= time.Duration(len(test))
	}
	res.AP = metrics.AveragePrecision(res.Scores, res.Labels)
	return res
}
