package predict

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GraphWaveNet is baseline (ii) of Section V-B.1: a spatial-temporal graph
// convolutional network integrating diffusion graph convolutions with 1-D
// dilated convolutions (Wu et al., IJCAI 2019). Its defining traits kept
// here:
//
//   - a *static* self-adaptive adjacency Ã = SoftMax(ReLU(E₁E₂ᵀ)) learned
//     from free node embeddings (it cannot change between prediction
//     instants — the gap DDGNN closes);
//   - gated 1-D dilated causal convolutions for temporal trends;
//   - forward and backward diffusion steps ÃZW₁ + ÃᵀZW₂ + ZW₀.
type GraphWaveNet struct {
	memoised
	cells  int
	lift   *nn.Linear
	temp1  *nn.GatedCausalConv
	temp2  *nn.GatedCausalConv
	e1, e2 *nn.Node // node embeddings for the self-adaptive adjacency
	wFwd   *nn.Node
	wBwd   *nn.Node
	wSelf  *nn.Node
	hidden *nn.Linear
	out    *nn.Linear
}

// NewGraphWaveNet allocates the baseline for m grid cells with feature
// dimension k, hidden width f, and embedding size e.
func NewGraphWaveNet(m, k, f, e int, cfg TrainConfig) *GraphWaveNet {
	p := nn.NewParams(cfg.Seed + 202)
	g := &GraphWaveNet{
		memoised: memoised{params: p, cfg: cfg},
		cells:    m,
		lift:     nn.NewLinear(p, k, f),
		temp1:    nn.NewGatedCausalConv(p, f, f, 3, 1),
		temp2:    nn.NewGatedCausalConv(p, f, f, 3, 2),
		// Embeddings start at unit scale so the initial softmax adjacency
		// is peaky; a near-uniform adjacency over-smooths every cell's
		// features and stalls learning.
		e1:     p.Matrix(m, e, 1.0),
		e2:     p.Matrix(m, e, 1.0),
		wFwd:   p.Xavier(f, f),
		wBwd:   p.Xavier(f, f),
		wSelf:  p.Xavier(f, f),
		hidden: nn.NewLinear(p, f, f),
		out:    nn.NewLinear(p, f, k),
	}
	g.net = g.forward
	return g
}

// Name implements Predictor.
func (m *GraphWaveNet) Name() string { return "Graph-WaveNet" }

// adaptiveAdjacency returns the learned static adjacency Ã.
func (m *GraphWaveNet) adaptiveAdjacency() *nn.Node {
	return nn.SoftmaxRows(nn.ReLU(nn.MatMul(m.e1, nn.Transpose(m.e2))))
}

func (m *GraphWaveNet) forward(inputs []*tensor.Matrix, memo *nn.StepMemo) *nn.Node {
	z, _ := nn.LastStep(m.lift, inputs, memo, m.temp1, m.temp2) // last-step features, M×F

	adj := m.adaptiveAdjacency()
	diffused := nn.Add(
		nn.Add(nn.MatMul(adj, nn.MatMul(z, m.wFwd)), nn.MatMul(nn.Transpose(adj), nn.MatMul(z, m.wBwd))),
		nn.MatMul(z, m.wSelf),
	)
	h := nn.ReLU(m.hidden.Forward(nn.ReLU(diffused)))
	return nn.Sigmoid(m.out.Forward(h))
}
