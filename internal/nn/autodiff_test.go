package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numGrad numerically differentiates loss() with respect to every element of
// the given parameters and compares against the autodiff gradients.
func checkGrads(t *testing.T, params []*Node, loss func() *Node, tol float64) {
	t.Helper()
	// Autodiff pass.
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
	Backward(loss())
	const eps = 1e-5
	for pi, p := range params {
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			up := loss().Val.Data[0]
			p.Val.Data[i] = orig - eps
			down := loss().Val.Data[0]
			p.Val.Data[i] = orig
			want := (up - down) / (2 * eps)
			got := 0.0
			if p.Grad != nil {
				got = p.Grad.Data[i]
			}
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: autodiff %g vs numeric %g", pi, i, got, want)
			}
		}
	}
}

func TestGradMatMulAddBias(t *testing.T) {
	p := NewParams(1)
	w := p.Xavier(3, 2)
	b := p.Zeros(1, 2)
	x := Leaf(tensor.Randn(4, 3, 1, rand.New(rand.NewSource(2))))
	target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(3)))
	loss := func() *Node { return MSE(AddBias(MatMul(x, w), b), target) }
	checkGrads(t, p.All(), loss, 1e-6)
}

func TestGradActivations(t *testing.T) {
	for name, act := range map[string]func(*Node) *Node{
		"tanh":    Tanh,
		"sigmoid": Sigmoid,
		"relu":    ReLU,
	} {
		p := NewParams(7)
		w := p.Matrix(3, 3, 0.8)
		x := Leaf(tensor.Randn(2, 3, 1, rand.New(rand.NewSource(5))))
		target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(6)))
		loss := func() *Node { return MSE(act(MatMul(x, w)), target) }
		t.Run(name, func(t *testing.T) { checkGrads(t, p.All(), loss, 1e-5) })
	}
}

func TestGradMulSubScaleAddConst(t *testing.T) {
	p := NewParams(11)
	a := p.Matrix(2, 3, 1)
	b := p.Matrix(2, 3, 1)
	target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(8)))
	loss := func() *Node {
		return MSE(AddConst(Scale(Sub(Mul(a, b), a), 1.5), 0.3), target)
	}
	checkGrads(t, p.All(), loss, 1e-6)
}

func TestGradTranspose(t *testing.T) {
	p := NewParams(13)
	a := p.Matrix(2, 4, 1)
	target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(9)))
	loss := func() *Node { return MSE(Transpose(a), target) }
	checkGrads(t, p.All(), loss, 1e-6)
}

func TestGradSoftmaxRows(t *testing.T) {
	p := NewParams(17)
	a := p.Matrix(3, 4, 1)
	target := tensor.Randn(3, 4, 0.2, rand.New(rand.NewSource(10)))
	loss := func() *Node { return MSE(SoftmaxRows(a), target) }
	checkGrads(t, p.All(), loss, 1e-5)
}

func TestGradRowSumScaleRowsScaleCols(t *testing.T) {
	p := NewParams(19)
	a := p.Matrix(3, 4, 1)
	v := p.Matrix(3, 1, 1)
	u := p.Matrix(1, 4, 1)
	target := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(11)))
	loss := func() *Node {
		s := ScaleRows(a, v)
		s = ScaleCols(s, u)
		rs := RowSum(s) // 3x1
		return MSE(ScaleRows(s, rs), target)
	}
	checkGrads(t, p.All(), loss, 1e-5)
}

func TestGradPowElem(t *testing.T) {
	p := NewParams(23)
	a := p.Matrix(2, 3, 0.1)
	// Shift to keep values strictly positive for fractional powers.
	target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(12)))
	loss := func() *Node { return MSE(PowElem(AddConst(a, 2), -0.5), target) }
	checkGrads(t, p.All(), loss, 1e-5)
}

func TestGradConcatCols(t *testing.T) {
	p := NewParams(29)
	a := p.Matrix(2, 2, 1)
	b := p.Matrix(2, 3, 1)
	target := tensor.Randn(2, 5, 1, rand.New(rand.NewSource(13)))
	loss := func() *Node { return MSE(ConcatCols(a, b), target) }
	checkGrads(t, p.All(), loss, 1e-6)
}

func TestGradBCE(t *testing.T) {
	p := NewParams(31)
	w := p.Matrix(3, 2, 0.5)
	x := Leaf(tensor.Randn(4, 3, 1, rand.New(rand.NewSource(14))))
	target := tensor.New(4, 2)
	for i := range target.Data {
		if i%3 == 0 {
			target.Data[i] = 1
		}
	}
	loss := func() *Node { return BCE(Sigmoid(MatMul(x, w)), target) }
	checkGrads(t, p.All(), loss, 1e-5)
}

func TestGradNormalizeAdjacencyAPPNP(t *testing.T) {
	p := NewParams(37)
	logits := p.Matrix(3, 3, 0.5)
	z := p.Matrix(3, 2, 0.5)
	target := tensor.Randn(3, 2, 1, rand.New(rand.NewSource(15)))
	loss := func() *Node {
		a := SoftmaxRows(Tanh(logits))
		norm := NormalizeAdjacency(a)
		return MSE(APPNP(z, norm, 0.2, 3), target)
	}
	checkGrads(t, p.All(), loss, 1e-4)
}

func TestGradLSTMCell(t *testing.T) {
	p := NewParams(41)
	cell := NewLSTMCell(p, 2, 3)
	xs := []*tensor.Matrix{
		tensor.Randn(2, 2, 1, rand.New(rand.NewSource(16))),
		tensor.Randn(2, 2, 1, rand.New(rand.NewSource(17))),
	}
	target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(18)))
	loss := func() *Node {
		h, c := cell.InitState(2)
		for _, x := range xs {
			h, c = cell.Step(Leaf(x), h, c)
		}
		return MSE(h, target)
	}
	checkGrads(t, p.All(), loss, 1e-4)
}

func TestGradGatedCausalConv(t *testing.T) {
	p := NewParams(43)
	conv := NewGatedCausalConv(p, 2, 2, 3, 2)
	var xs []*Node
	for i := 0; i < 6; i++ {
		xs = append(xs, Leaf(tensor.Randn(3, 2, 1, rand.New(rand.NewSource(int64(20+i))))))
	}
	target := tensor.Randn(3, 2, 1, rand.New(rand.NewSource(30)))
	loss := func() *Node {
		out := conv.Forward(xs)
		return MSE(out[len(out)-1], target)
	}
	checkGrads(t, p.All(), loss, 1e-5)
}

func TestGradReusedNode(t *testing.T) {
	// A node used twice must accumulate both gradient paths.
	p := NewParams(47)
	a := p.Matrix(2, 2, 1)
	target := tensor.Randn(2, 2, 1, rand.New(rand.NewSource(31)))
	loss := func() *Node { return MSE(Add(a, a), target) }
	checkGrads(t, p.All(), loss, 1e-6)
}

// TestBackwardReleasesGraph: Backward returns the loss and hands every
// operation's value and gradient back to tensor's pool, each once, while the
// leaves and parameters keep their own, values unchanged.
func TestBackwardReleasesGraph(t *testing.T) {
	p := NewParams(61)
	w, b := p.Xavier(3, 2), p.Zeros(1, 2)
	x := Leaf(tensor.Randn(4, 3, 1, rand.New(rand.NewSource(62))))
	target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(63)))
	h := Tanh(AddBias(MatMul(x, w), b))
	loss := MSE(Add(h, h), target) // h is read twice
	want := loss.Val.Data[0]

	var ops, owned []*Node
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.back != nil {
			ops = append(ops, n)
		} else {
			owned = append(owned, n)
		}
		for _, c := range n.prev {
			walk(c)
		}
	}
	walk(loss)
	before := make([]*tensor.Matrix, len(owned))
	for i, n := range owned {
		before[i] = n.Val.Clone()
	}

	if got := Backward(loss); got != want {
		t.Fatalf("Backward returned %v, the loss is %v", got, want)
	}
	for _, n := range ops {
		if n.Val != nil || n.Grad != nil {
			t.Fatalf("an operation kept its value or gradient after Backward")
		}
	}
	for i, n := range owned {
		if n.Val == nil || !sameBits(n.Val, before[i]) {
			t.Fatalf("a leaf or parameter lost or changed its value")
		}
		if n.requiresGrad && n.Grad == nil {
			t.Fatalf("a parameter has no gradient after Backward")
		}
	}
	// Storage handed back twice would come out of New twice.
	got := map[*tensor.Matrix]bool{}
	for i := 0; i < 4*len(ops); i++ {
		for _, shape := range [][2]int{{4, 2}, {2, 3}, {1, 1}} {
			m := tensor.New(shape[0], shape[1])
			if got[m] {
				t.Fatalf("New returned one %dx%d matrix twice: Backward recycled it twice", shape[0], shape[1])
			}
			got[m] = true
		}
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Backward of non-scalar should panic")
		}
	}()
	Backward(Leaf(tensor.New(2, 2)))
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = xW* with Adam; loss must drop by orders of magnitude.
	r := rand.New(rand.NewSource(51))
	wStar := tensor.Randn(3, 2, 1, r)
	x := tensor.Randn(20, 3, 1, r)
	y := tensor.MatMul(x, wStar)

	p := NewParams(52)
	w := p.Xavier(3, 2)
	opt := NewAdam(0.05)
	first, last := 0.0, 0.0
	for epoch := 0; epoch < 300; epoch++ {
		p.ZeroGrads()
		loss := MSE(MatMul(Leaf(x), w), y)
		if epoch == 0 {
			first = loss.Val.Data[0]
		}
		last = loss.Val.Data[0]
		Backward(loss)
		opt.Step(p.All())
	}
	if last > first/100 {
		t.Errorf("Adam failed to fit: first=%g last=%g", first, last)
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParams(55)
	a := p.Matrix(1, 2, 1)
	a.Grad = tensor.FromSlice(1, 2, []float64{3, 4}) // norm 5
	norm := ClipGrads(p.All(), 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	got := math.Hypot(a.Grad.Data[0], a.Grad.Data[1])
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("post-clip norm = %v", got)
	}
	// Under the cap: untouched.
	a.Grad = tensor.FromSlice(1, 2, []float64{0.3, 0.4})
	ClipGrads(p.All(), 1)
	if a.Grad.Data[0] != 0.3 {
		t.Error("grads under cap must not change")
	}
}

func TestParamsBookkeeping(t *testing.T) {
	p := NewParams(56)
	p.Matrix(2, 3, 1)
	p.Zeros(1, 3)
	if p.Count() != 9 {
		t.Errorf("Count = %d", p.Count())
	}
	if len(p.All()) != 2 {
		t.Errorf("All = %d", len(p.All()))
	}
	for _, n := range p.All() {
		n.grad().Data[0] = 5
	}
	p.ZeroGrads()
	for _, n := range p.All() {
		if n.Grad.Data[0] != 0 {
			t.Error("ZeroGrads left residue")
		}
	}
}

func TestLinearShapes(t *testing.T) {
	p := NewParams(57)
	l := NewLinear(p, 4, 3)
	x := Leaf(tensor.New(5, 4))
	y := l.Forward(x)
	if y.Val.Rows != 5 || y.Val.Cols != 3 {
		t.Errorf("Linear output %dx%d", y.Val.Rows, y.Val.Cols)
	}
}

func TestCausalConvCausality(t *testing.T) {
	// Output at step t must not depend on inputs after t.
	p := NewParams(58)
	conv := NewCausalConv(p, 1, 1, 3, 1)
	mk := func(vals ...float64) []*Node {
		var xs []*Node
		for _, v := range vals {
			xs = append(xs, Leaf(tensor.FromSlice(1, 1, []float64{v})))
		}
		return xs
	}
	a := conv.Forward(mk(1, 2, 3, 4))
	b := conv.Forward(mk(1, 2, 3, 99))
	for tstep := 0; tstep < 3; tstep++ {
		if a[tstep].Val.Data[0] != b[tstep].Val.Data[0] {
			t.Errorf("step %d depends on a future input", tstep)
		}
	}
}

func TestCausalConvDilationReceptiveField(t *testing.T) {
	p := NewParams(59)
	conv := NewCausalConv(p, 1, 1, 3, 2) // taps at t, t-2, t-4
	// Make taps identity-ish: set weights to 1 for visibility.
	for _, tap := range conv.Taps {
		tap.Val.Data[0] = 1
	}
	var xs []*Node
	for i := 0; i < 5; i++ {
		v := 0.0
		if i == 0 {
			v = 1
		}
		xs = append(xs, Leaf(tensor.FromSlice(1, 1, []float64{v})))
	}
	out := conv.Forward(xs)
	// Impulse at t=0 must appear at t=0, 2, 4 only.
	for tstep, o := range out {
		want := 0.0
		if tstep == 0 || tstep == 2 || tstep == 4 {
			want = 1
		}
		if math.Abs(o.Val.Data[0]-want) > 1e-12 {
			t.Errorf("step %d = %v, want %v", tstep, o.Val.Data[0], want)
		}
	}
}

func TestAPPNPRestartDominates(t *testing.T) {
	// With alpha=1, APPNP returns ReLU(z0) regardless of the adjacency.
	z0 := Leaf(tensor.FromSlice(2, 1, []float64{1, -1}))
	adj := Leaf(tensor.Eye(2))
	out := APPNP(z0, adj, 1, 5)
	if out.Val.Data[0] != 1 || out.Val.Data[1] != 0 {
		t.Errorf("APPNP alpha=1 = %v", out.Val.Data)
	}
}

// TestNormalizeAdjacencyMatchesTensor: the differentiable normalization
// equals D^{-1/2}(A+I)D^{-1/2} with D_ii = 1 + Σ_j A_ij, computed directly on
// the tensor matrix, and is the identity for a zero adjacency.
func TestNormalizeAdjacencyMatchesTensor(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for _, raw := range []*tensor.Matrix{tensor.Apply(tensor.Randn(4, 4, 1, r), math.Abs), tensor.New(3, 3)} {
		n := raw.Rows
		dinv := make([]float64, n)
		for i := range dinv {
			s := 1.0 // the +I self loop
			for j := 0; j < n; j++ {
				s += raw.At(i, j)
			}
			dinv[i] = 1 / math.Sqrt(s)
		}
		got := NormalizeAdjacency(Leaf(raw)).Val
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := raw.At(i, j)
				if i == j {
					v++
				}
				want := dinv[i] * v * dinv[j]
				if math.Abs(got.At(i, j)-want) > 1e-9 {
					t.Fatalf("%dx%d: entry (%d, %d) is %g, closed form %g", n, n, i, j, got.At(i, j), want)
				}
			}
		}
	}
}
