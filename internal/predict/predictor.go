package predict

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Predictor is a trainable one-step-ahead task demand model. Fit trains on
// the given windows; Predict maps a history window (a slice of M×K binary
// matrices) to an M×K matrix of occurrence probabilities for the next
// vector.
type Predictor interface {
	Name() string
	Fit(train []Window) error
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

// fitModel runs the shared training loop: one pass over the windows per
// epoch in a deterministically shuffled order, BCE loss, gradient clipping,
// Adam.
func fitModel(params *nn.Params, cfg TrainConfig, forward func(Window) *nn.Node, train []Window) error {
	cfg = cfg.withDefaults()
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	rng := rand.New(rand.NewSource(cfg.Seed + 909))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			w := train[idx]
			params.ZeroGrads()
			pred := forward(w)
			loss := nn.BCE(pred, w.Target)
			nn.Backward(loss)
			nn.ClipGrads(params.All(), cfg.ClipNorm)
			opt.Step(params.All())
			nn.Release(loss)
		}
	}
	return nil
}

// Evaluate trains p on the train windows and scores it on the test windows,
// measuring wall-clock training and inference (testing) time, and computing
// Average Precision per the paper's protocol. The test windows are predicted
// in order, so the testing time of a model whose trunk carries values from
// one window to the next (DDGNN and Graph-WaveNet, through nn.StepMemo) is
// that of streaming inference: consecutive windows slid by the stride. The
// LSTM recomputes every window.
func Evaluate(p Predictor, train, test []Window) (EvalResult, error) {
	res := EvalResult{Model: p.Name()}
	start := time.Now()
	if err := p.Fit(train); err != nil {
		return res, err
	}
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
	return res, nil
}
