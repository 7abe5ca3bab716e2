package nn

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/fmath"
	"repro/internal/tensor"
)

// Params owns the trainable parameters of a model and the RNG used to
// initialize them, so whole-model training is reproducible from one seed.
type Params struct {
	nodes []*Node
	rng   *rand.Rand
}

// NewParams returns an empty parameter set seeded deterministically.
func NewParams(seed int64) *Params {
	return &Params{rng: rand.New(rand.NewSource(seed))}
}

// Matrix allocates a rows×cols parameter initialized N(0, std²) and
// registers it for optimization.
func (p *Params) Matrix(rows, cols int, std float64) *Node {
	n := Variable(tensor.Randn(rows, cols, std, p.rng))
	p.nodes = append(p.nodes, n)
	return n
}

// Xavier allocates a rows×cols parameter with Xavier/Glorot initialization.
func (p *Params) Xavier(rows, cols int) *Node {
	return p.Matrix(rows, cols, math.Sqrt(2.0/float64(rows+cols)))
}

// Zeros allocates a zero-initialized parameter (typical for biases).
func (p *Params) Zeros(rows, cols int) *Node {
	n := Variable(tensor.New(rows, cols))
	p.nodes = append(p.nodes, n)
	return n
}

// All returns every registered parameter.
func (p *Params) All() []*Node { return p.nodes }

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, node := range p.nodes {
		n += len(node.Val.Data)
	}
	return n
}

// ZeroGrads clears accumulated gradients before a new backward pass.
func (p *Params) ZeroGrads() {
	for _, n := range p.nodes {
		if n.Grad != nil {
			n.Grad.Zero()
		}
	}
}

// ClipGrads rescales all gradients so their global L2 norm is at most max.
// It returns the pre-clip norm.
func ClipGrads(params []*Node, max float64) float64 {
	total := 0.0
	for _, n := range params {
		if n.Grad == nil {
			continue
		}
		for _, g := range n.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		k := max / norm
		for _, n := range params {
			if n.Grad == nil {
				continue
			}
			for i := range n.Grad.Data {
				n.Grad.Data[i] *= k
			}
		}
	}
	return norm
}

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter list,
// with optional decoupled weight decay (AdamW).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// WeightDecay, when positive, shrinks parameters by LR·WeightDecay·θ
	// per step, decoupled from the adaptive update.
	WeightDecay float64

	t int
	m map[*Node][]float64
	v map[*Node][]float64
}

// NewAdam returns an Adam optimizer with standard defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Node][]float64), v: make(map[*Node][]float64),
	}
}

// Step applies one Adam update to every parameter with a gradient.
func (o *Adam) Step(params []*Node) {
	o.t++
	bc1 := 1 - fmath.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - fmath.Pow(o.Beta2, float64(o.t))
	for _, n := range params {
		if n.Grad == nil {
			continue
		}
		m, ok := o.m[n]
		if !ok {
			m = make([]float64, len(n.Val.Data))
			o.m[n] = m
			o.v[n] = make([]float64, len(n.Val.Data))
		}
		v := o.v[n]
		for i, g := range n.Grad.Data {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			n.Val.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
			if o.WeightDecay > 0 {
				n.Val.Data[i] -= o.LR * o.WeightDecay * n.Val.Data[i]
			}
		}
	}
}

// Fit is the training loop of every model here. Each of epochs passes
// shuffles the n examples with a generator seeded by seed, then walks them in
// runs of batch: it zeroes the gradients, builds loss over the run's example
// indices, back-propagates, clips the gradients to global norm clip and steps
// opt. It returns the last pass's mean loss, 0 when there are no examples.
func Fit(params *Params, opt *Adam, clip float64, seed int64, epochs, n, batch int, loss func(run []int) *Node) float64 {
	if n == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	last := 0.0
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum, runs := 0.0, 0
		for start := 0; start < n; start += batch {
			params.ZeroGrads()
			sum += Backward(loss(order[start:min(start+batch, n)]))
			ClipGrads(params.All(), clip)
			opt.Step(params.All())
			runs++
		}
		last = sum / float64(runs)
	}
	return last
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W, B *Node
}

// NewLinear allocates a Linear layer with Xavier weights and zero bias.
func NewLinear(p *Params, in, out int) *Linear {
	return &Linear{W: p.Xavier(in, out), B: p.Zeros(1, out)}
}

// Forward applies the layer to a batch (rows = examples).
func (l *Linear) Forward(x *Node) *Node {
	return AddBias(MatMul(x, l.W), l.B)
}

// CausalConv is one tap-K dilated causal convolution along the time axis.
// The time axis is represented as a Go slice of nodes, each an M×In matrix
// (M = grid cells). Output at step t combines inputs at t, t−d, …,
// t−(K−1)·d per Eq. 3 of the paper; missing steps are zero padding.
type CausalConv struct {
	Taps     []*Node // K weight matrices, each In×Out
	B        *Node   // 1×Out bias
	Dilation int
}

// NewCausalConv allocates a causal convolution with K taps (the paper fixes
// the filter dimension K to 3) and the given dilation factor.
func NewCausalConv(p *Params, in, out, k, dilation int) *CausalConv {
	c := &CausalConv{Dilation: dilation, B: p.Zeros(1, out)}
	for i := 0; i < k; i++ {
		c.Taps = append(c.Taps, p.Xavier(in, out))
	}
	return c
}

// Forward maps a sequence of M×In inputs to a sequence of M×Out outputs of
// the same length.
func (c *CausalConv) Forward(xs []*Node) []*Node {
	out := make([]*Node, len(xs))
	for t := range xs {
		out[t] = c.at(xs, t)
	}
	return out
}

// at evaluates the convolution at step t alone. It reads xs only at the
// taps' source steps (markSources), so the other entries may be nil.
func (c *CausalConv) at(xs []*Node, t int) *Node {
	var acc *Node
	for i, w := range c.Taps {
		src := t - i*c.Dilation
		if src < 0 {
			continue // zero padding
		}
		term := MatMul(xs[src], w)
		if acc == nil {
			acc = term
		} else {
			acc = Add(acc, term)
		}
	}
	return AddBias(acc, c.B)
}

// reach is how many steps before its own an output reads: (K−1)·dilation.
func (c *CausalConv) reach() int { return (len(c.Taps) - 1) * c.Dilation }

// markSources sets need[src] for every input step the output at step t reads.
func (c *CausalConv) markSources(need []bool, t int) {
	for i := range c.Taps {
		if src := t - i*c.Dilation; src >= 0 {
			need[src] = true
		}
	}
}

// GatedCausalConv is the gated temporal block of Eq. 7:
// Z = tanh(Θ₁*X + b₁) ⊙ σ(Θ₂*X + b₂).
type GatedCausalConv struct {
	Filter, Gate *CausalConv
}

// NewGatedCausalConv allocates the two parallel convolutions of the gate.
func NewGatedCausalConv(p *Params, in, out, k, dilation int) *GatedCausalConv {
	return &GatedCausalConv{
		Filter: NewCausalConv(p, in, out, k, dilation),
		Gate:   NewCausalConv(p, in, out, k, dilation),
	}
}

// Forward applies the gated convolution to the sequence.
func (g *GatedCausalConv) Forward(xs []*Node) []*Node {
	out := make([]*Node, len(xs))
	for t := range xs {
		out[t] = g.at(xs, t)
	}
	return out
}

func (g *GatedCausalConv) at(xs []*Node, t int) *Node {
	return Mul(Tanh(g.Filter.at(xs, t)), Sigmoid(g.Gate.at(xs, t)))
}

// LastStep evaluates a temporal trunk — lift applied to every input step,
// then the gated causal layers bottom to top — for a consumer that reads only
// the top layer's final step, as all three graph predictors do. It walks the
// stack down from that step to find which steps each layer must produce and
// evaluates nothing else: with 8 inputs, 3 taps and dilations 1 and 2 that is
// 1, 3 and 7 steps of the three levels instead of 8 each. Every node it does
// build is the one Forward would have built, from the same operations on the
// same operands, so values — and, since Backward only visits nodes reachable
// from the loss, gradients — are bit-identical to slicing the full sequence.
// lifted is the lift of the final input (DDGNN's residual skip).
//
// With a nil memo LastStep builds that whole tape, for training. With a memo
// it also skips every value the memo carries from its previous call (see
// StepMemo): on a window slid by one that is all but one lift and one step per
// layer. Each value it does compute becomes the memo's as it is built, and
// each it carries enters the graph as a leaf over the memo's matrix; top and
// lifted are valid until the memo's next call, and the graph is for Release,
// not Backward. The memo also lends the call its scratch, so that a warm
// inference allocates nothing here. Without a memo the scratch comes from a
// package-level pool, so a warm training step allocates nothing here either.
func LastStep(lift *Linear, inputs []*tensor.Matrix, memo *StepMemo, layers ...*GatedCausalConv) (top, lifted *Node) {
	n := len(inputs)
	var vals []*tensor.Matrix // the memo's table: vals[l*n+t], nil unless carried
	var tab *stepTables
	if memo != nil {
		vals = memo.align(inputs, layers)
		tab = &memo.tables
	} else {
		tab = getTables()
		defer tab.put()
	}
	tab.reset((len(layers) + 1) * n)
	need, nodes := tab.need, tab.nodes
	need[n-1], need[len(need)-1] = true, true // lifted, top
	for l := len(layers); l > 0; l-- {
		below := need[(l-1)*n : l*n]
		for t, wanted := range need[l*n : (l+1)*n] {
			if wanted && (vals == nil || vals[l*n+t] == nil) {
				layers[l-1].Filter.markSources(below, t)
				layers[l-1].Gate.markSources(below, t)
			}
		}
	}
	var below []*Node
	for l := 0; l <= len(layers); l++ {
		cur := nodes[l*n : (l+1)*n]
		for t := range cur {
			i := l*n + t
			switch {
			case !need[i]:
			case vals != nil && vals[i] != nil:
				cur[t] = Leaf(vals[i])
			default:
				if l == 0 {
					cur[t] = lift.Forward(Leaf(inputs[t]))
				} else {
					cur[t] = layers[l-1].at(below, t)
				}
				if memo != nil {
					cur[t] = memo.keep(i, cur[t])
				}
			}
		}
		if l == 0 {
			lifted = cur[n-1]
		}
		below = cur
	}
	return below[n-1], lifted
}

// stepTables is LastStep's scratch: need[l*n+t] says level l (0 = the lift, l
// = layers[l-1]'s output) is read at step t, and nodes[l*n+t] is its node.
type stepTables struct {
	need  []bool
	nodes []*Node
}

// reset sizes both tables for size steps, all clear.
func (tab *stepTables) reset(size int) {
	tab.need, tab.nodes = cleared(tab.need, size), cleared(tab.nodes, size)
}

// tablesPool lends memo-free LastStep calls — every training step — their
// tables.
var tablesPool sync.Pool

func getTables() *stepTables {
	tab, _ := tablesPool.Get().(*stepTables)
	if tab == nil {
		tab = new(stepTables)
	}
	return tab
}

// put hands tab back, holding no node: the graph it was built for may be
// ended and its nodes another graph's.
func (tab *stepTables) put() {
	clear(tab.nodes)
	tablesPool.Put(tab)
}

// NormalizeAdjacency builds Â = D^{-1/2}(A+I)D^{-1/2} differentiably, where
// D_ii = 1 + Σ_j A_ij (Eqs. 8–9). A must be square with non-negative
// entries (e.g. a row-softmax output).
func NormalizeAdjacency(a *Node) *Node {
	n := a.Val.Rows
	withSelf := Add(a, Temp(tensor.Eye(n)))
	deg := AddConst(RowSum(a), 1) // n×1, D_ii = 1 + Σ_j A_ij
	dinv := PowElem(deg, -0.5)    // n×1
	half := ScaleRows(withSelf, dinv)
	return ScaleCols(half, Transpose(dinv))
}

// APPNP runs the Approximate Personalized Propagation of Neural Predictions
// layer (Eqs. 8–9): Z^{h+1} = αZ⁰ + (1−α)ÂZ^h for H power-iteration steps,
// with a final ReLU. normAdj must already be normalized.
func APPNP(z0, normAdj *Node, alpha float64, steps int) *Node {
	z := z0
	for h := 0; h < steps; h++ {
		z = Add(Scale(z0, alpha), Scale(MatMul(normAdj, z), 1-alpha))
	}
	return ReLU(z)
}

// LSTMCell is a standard LSTM cell with combined input/hidden weights,
// used by the LSTM prediction baseline (Section V-B.1 method i).
type LSTMCell struct {
	Hidden int
	// One Linear per gate over [x ; h].
	Wi, Wf, Wo, Wg *Linear
}

// NewLSTMCell allocates an LSTM cell for the given input and hidden sizes.
func NewLSTMCell(p *Params, in, hidden int) *LSTMCell {
	return &LSTMCell{
		Hidden: hidden,
		Wi:     NewLinear(p, in+hidden, hidden),
		Wf:     NewLinear(p, in+hidden, hidden),
		Wo:     NewLinear(p, in+hidden, hidden),
		Wg:     NewLinear(p, in+hidden, hidden),
	}
}

// InitState returns zero h and c states for a batch of the given size.
func (l *LSTMCell) InitState(batch int) (h, c *Node) {
	return Temp(tensor.New(batch, l.Hidden)), Temp(tensor.New(batch, l.Hidden))
}

// Step consumes one time step x (batch×in) and returns the new (h, c).
func (l *LSTMCell) Step(x, h, c *Node) (*Node, *Node) {
	xh := ConcatCols(x, h)
	i := Sigmoid(l.Wi.Forward(xh))
	f := Sigmoid(l.Wf.Forward(xh))
	o := Sigmoid(l.Wo.Forward(xh))
	g := Tanh(l.Wg.Forward(xh))
	cNew := Add(Mul(f, c), Mul(i, g))
	hNew := Mul(o, Tanh(cNew))
	return hNew, cNew
}
