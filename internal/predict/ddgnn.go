package predict

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DDGNN is the paper's Dynamic Dependency-based Graph Neural Network
// (Section III-B/III-C, Fig. 4):
//
//  1. The Demand Dependency Learning module derives two node embeddings
//     from the *current* historical window, M₁ = F_θ₁(C_t) and
//     M₂ = F_θ₂(C_t) (Eqs. 4–5), and the dynamic time-based adjacency
//     𝒜_t = SoftMax(tanh(M₁M₂ᵀ + M₂M₁ᵀ)) (Eq. 6). Unlike Graph-WaveNet's
//     static embedding product, 𝒜_t is recomputed from data at every
//     prediction instant, tracking time-varying demand dependencies.
//  2. Gated dilated causal convolutions Z = tanh(Θ₁C+b₁) ⊙ σ(Θ₂C+b₂)
//     (Eq. 7) capture per-cell temporal trends, with a residual connection
//     as in Fig. 4.
//  3. APPNP propagation Z^{h+1} = αZ⁰ + (1−α)𝒜̂_tZ^h (Eqs. 8–9) mixes each
//     node's features with its demand-dependent neighbors, where
//     𝒜̂_t = D̂^{-1/2}(𝒜_t+I)D̂^{-1/2}.
//  4. Two 1×1 convolutions with ReLU produce the K per-interval occurrence
//     probabilities via a final sigmoid.
type DDGNN struct {
	memoised
	lift   *nn.Linear
	temp1  *nn.GatedCausalConv
	temp2  *nn.GatedCausalConv
	resid  *nn.Node   // F×F residual projection
	f1, f2 *nn.Linear // the two embedding networks F_θ1, F_θ2
	hidden *nn.Linear
	out    *nn.Linear
	static bool // DDGNN-static: propagate over the identity
}

// DDGNNConfig collects the model hyperparameters. Zero values take
// paper-guided defaults.
type DDGNNConfig struct {
	// K is the per-vector feature dimension (intervals per vector).
	K int
	// Hidden is the temporal feature width F.
	Hidden int
	// Embed is the node embedding width of the dependency module.
	Embed int
	Train TrainConfig
}

// APPNP's restart probability α and its power-iteration steps H (Eqs. 8–9).
const (
	appnpAlpha = 0.2
	appnpHops  = 3
)

// NewDDGNN allocates a DDGNN for the given configuration.
func NewDDGNN(c DDGNNConfig) *DDGNN {
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Embed <= 0 {
		c.Embed = 8
	}
	p := nn.NewParams(c.Train.Seed + 303)
	m := &DDGNN{
		memoised: memoised{params: p, cfg: c.Train},
		lift:     nn.NewLinear(p, c.K, c.Hidden),
		temp1:    nn.NewGatedCausalConv(p, c.Hidden, c.Hidden, 3, 1),
		temp2:    nn.NewGatedCausalConv(p, c.Hidden, c.Hidden, 3, 2),
		resid:    p.Xavier(c.Hidden, c.Hidden),
		f1:       nn.NewLinear(p, c.K, c.Embed),
		f2:       nn.NewLinear(p, c.K, c.Embed),
		hidden:   nn.NewLinear(p, c.Hidden, c.Hidden),
		out:      nn.NewLinear(p, c.Hidden, c.K),
	}
	m.net = m.forward
	return m
}

// NewStaticAdjacencyDDGNN returns the ablation DDGNN-static: a DDGNN that
// propagates over the identity adjacency (no learned dependencies), to
// quantify how much of DDGNN's accuracy comes from the Demand Dependency
// Learning module.
func NewStaticAdjacencyDDGNN(c DDGNNConfig) *DDGNN {
	m := NewDDGNN(c)
	m.static = true
	return m
}

// Name implements Predictor.
func (m *DDGNN) Name() string {
	if m.static {
		return "DDGNN-static"
	}
	return "DDGNN"
}

// dependencyMatrix builds the dynamic adjacency 𝒜_t from the window's task
// data. C_t is summarized as the mean occurrence per cell over the window,
// keeping the module O(M·K) per instant.
func (m *DDGNN) dependencyMatrix(inputs []*tensor.Matrix) *nn.Node {
	ct := tensor.New(inputs[0].Rows, inputs[0].Cols)
	for _, x := range inputs {
		tensor.AddInPlace(ct, x)
	}
	k := 1 / float64(len(inputs))
	for i, v := range ct.Data {
		ct.Data[i] = k * v // tensor.Scale's product, in place
	}
	c := nn.Temp(ct)
	m1 := m.f1.Forward(c) // Eq. 4
	m2 := m.f2.Forward(c) // Eq. 5
	sym := nn.Add(nn.MatMul(m1, nn.Transpose(m2)), nn.MatMul(m2, nn.Transpose(m1)))
	return nn.SoftmaxRows(nn.Tanh(sym)) // Eq. 6
}

func (m *DDGNN) forward(inputs []*tensor.Matrix, memo *nn.StepMemo) *nn.Node {
	if m.static {
		return m.propagate(inputs, memo, nn.Temp(m.Adjacency(inputs)))
	}
	return m.propagate(inputs, memo, nn.NormalizeAdjacency(m.dependencyMatrix(inputs)))
}

// propagate is the model downstream of the adjacency choice: the temporal
// trunk at its last step (through memo when not nil), the residual, APPNP
// over normAdj and the head.
func (m *DDGNN) propagate(inputs []*tensor.Matrix, memo *nn.StepMemo, normAdj *nn.Node) *nn.Node {
	last, skip := nn.LastStep(m.lift, inputs, memo, m.temp1, m.temp2)
	// Residual connection (Fig. 4's "+" merging conv output with input).
	z := nn.Add(last, nn.MatMul(skip, m.resid))
	z = nn.APPNP(z, normAdj, appnpAlpha, appnpHops) // Eqs. 8–9, ends in ReLU
	h := nn.ReLU(m.hidden.Forward(z))
	return nn.Sigmoid(m.out.Forward(h))
}

// Adjacency exposes the current dynamic dependency matrix 𝒜_t for a window,
// for inspection and the ablation study. DDGNN-static's is the identity it
// propagates over, whatever the window.
func (m *DDGNN) Adjacency(inputs []*tensor.Matrix) *tensor.Matrix {
	if m.static {
		return tensor.Eye(inputs[0].Rows)
	}
	return nn.Release(m.dependencyMatrix(inputs))
}
