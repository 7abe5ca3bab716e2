package predict

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LSTMPredictor is baseline (i) of Section V-B.1: a Long Short-Term Memory
// model with a fully connected output layer and a sigmoid activation.
// Weights are shared across cells; each grid cell is one row of the batch,
// so the model sees no cross-cell information — exactly the limitation the
// paper exploits to motivate graph-based predictors.
type LSTMPredictor struct {
	params *nn.Params
	cell   *nn.LSTMCell
	out    *nn.Linear
	cfg    TrainConfig
}

// NewLSTMPredictor allocates the baseline with the given feature dimension K
// and hidden width.
func NewLSTMPredictor(k, hidden int, cfg TrainConfig) *LSTMPredictor {
	p := nn.NewParams(cfg.Seed + 101)
	return &LSTMPredictor{
		params: p,
		cell:   nn.NewLSTMCell(p, k, hidden),
		out:    nn.NewLinear(p, hidden, k),
		cfg:    cfg,
	}
}

// Name implements Predictor.
func (m *LSTMPredictor) Name() string { return "LSTM" }

func (m *LSTMPredictor) forward(inputs []*tensor.Matrix) *nn.Node {
	batch := inputs[0].Rows
	h, c := m.cell.InitState(batch)
	for _, x := range inputs {
		h, c = m.cell.Step(nn.Leaf(x), h, c)
	}
	return nn.Sigmoid(m.out.Forward(h))
}

// Fit implements Predictor.
func (m *LSTMPredictor) Fit(train []Window) {
	fitModel(m.params, m.cfg, func(w Window) *nn.Node { return m.forward(w.Inputs) }, train)
}

// Predict implements Predictor.
func (m *LSTMPredictor) Predict(inputs []*tensor.Matrix) *tensor.Matrix {
	return nn.Release(m.forward(inputs))
}

// ParamCount returns the number of trainable scalars, for diagnostics.
func (m *LSTMPredictor) ParamCount() int { return m.params.Count() }
