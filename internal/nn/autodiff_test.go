package nn

import (
	"math"
	"math/rand"
	"sync"
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
	x := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(2)))
	target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(3)))
	loss := func() *Node { return MSE(AddBias(MatMul(Leaf(x), w), b), target) }
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
		x := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(5)))
		target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(6)))
		loss := func() *Node { return MSE(act(MatMul(Leaf(x), w)), target) }
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
	x := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(14)))
	target := tensor.New(4, 2)
	for i := range target.Data {
		if i%3 == 0 {
			target.Data[i] = 1
		}
	}
	loss := func() *Node { return BCE(Sigmoid(MatMul(Leaf(x), w)), target) }
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
	var xs []*tensor.Matrix
	for i := 0; i < 6; i++ {
		xs = append(xs, tensor.Randn(3, 2, 1, rand.New(rand.NewSource(int64(20+i)))))
	}
	target := tensor.Randn(3, 2, 1, rand.New(rand.NewSource(30)))
	loss := func() *Node {
		leaves := make([]*Node, len(xs)) // a leaf belongs to one graph
		for i, x := range xs {
			leaves[i] = Leaf(x)
		}
		out := conv.Forward(leaves)
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

// graphNodes lists the nodes of root's graph by kind: its operations, its
// leaves and Temps, and the parameters it reads, each once.
func graphNodes(root *Node) (ops, leaves, params []*Node) {
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		switch {
		case n.kind == kindParam:
			params = append(params, n)
		case n.kind == kindLeaf || n.kind == kindTemp:
			leaves = append(leaves, n)
		default:
			ops = append(ops, n)
		}
		walk(n.a)
		walk(n.b)
	}
	walk(root)
	return ops, leaves, params
}

// checkEnded fails unless every node of ended, the nodes of a graph just
// ended, is back in the pool exactly once and every matrix of recycled is
// back in tensor's pool exactly once, and unless New and the pools hand out
// none of kept, the matrices the caller still owns. Under the race detector
// sync.Pool drops a share of what it is given, so there only "at most once"
// is checked.
func checkEnded(t *testing.T, ended []*Node, recycled, kept []*tensor.Matrix) {
	t.Helper()
	for _, n := range ended {
		if n.Val != nil || n.Grad != nil || n.a != nil || n.b != nil {
			t.Fatalf("a %v node was not cleared when its graph ended", n.kind)
		}
	}
	drawn := map[*Node]bool{}
	for i := 0; i < 2*len(ended)+8; i++ {
		n := Leaf(nil)
		if drawn[n] {
			t.Fatalf("the node pool returned one node twice: a graph ended it twice")
		}
		drawn[n] = true
	}
	for _, n := range ended {
		if !drawn[n] && !raceEnabled {
			t.Fatalf("an ended node did not come back out of the pool")
		}
	}
	own := map[*tensor.Matrix]bool{}
	for _, m := range kept {
		own[m] = true
	}
	got := map[*tensor.Matrix]bool{}
	for i := 0; i < 4*len(recycled)+8; i++ {
		for _, m := range recycled {
			m := tensor.New(m.Rows, m.Cols)
			if got[m] {
				t.Fatalf("New returned one %dx%d matrix twice: a graph recycled it twice", m.Rows, m.Cols)
			}
			if own[m] {
				t.Fatalf("New returned a matrix the caller owns")
			}
			got[m] = true
		}
	}
}

// TestBackwardReleasesGraph: Backward returns the loss and hands every
// operation's value and gradient and every Temp's value back to tensor's pool
// and every node but the parameters back to the node pool, each once; leaves'
// values and parameters are untouched, the parameters with their gradients.
func TestBackwardReleasesGraph(t *testing.T) {
	p := NewParams(61)
	w, b := p.Xavier(3, 2), p.Zeros(1, 2)
	x := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(62)))
	target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(63)))
	shift := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(64)))
	h := Tanh(AddBias(MatMul(Leaf(x), w), b))
	loss := MSE(Add(Add(h, h), Temp(shift)), target) // h is read twice
	want := loss.Val.Data[0]

	ops, leaves, params := graphNodes(loss)
	if len(params) != 2 || len(leaves) != 3 {
		t.Fatalf("the graph has %d parameters and %d leaves, want 2 and 3", len(params), len(leaves))
	}
	wBefore, xBefore := w.Val.Clone(), x.Clone()
	var recycled []*tensor.Matrix
	for _, n := range ops {
		recycled = append(recycled, n.Val)
	}
	recycled = append(recycled, shift)

	if got := Backward(loss); got != want {
		t.Fatalf("Backward returned %v, the loss is %v", got, want)
	}
	if !sameBits(w.Val, wBefore) || !sameBits(x, xBefore) || w.Grad == nil || b.Grad == nil {
		t.Fatalf("a leaf's value or a parameter changed, or a parameter has no gradient")
	}
	if w.kind != kindParam || b.kind != kindParam {
		t.Fatalf("Backward ended a parameter")
	}
	checkEnded(t, append(ops, leaves...), recycled, []*tensor.Matrix{x, target, w.Val, b.Val, w.Grad, b.Grad})
}

// TestReleaseEndsGraph: Release returns the root's value and ends the rest of
// the graph as Backward does; a value a StepMemo keeps stays out of the pool.
func TestReleaseEndsGraph(t *testing.T) {
	p := NewParams(65)
	w := p.Xavier(3, 4)
	x := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(66)))
	var memo StepMemo
	memo.vals, memo.eval = make([]*tensor.Matrix, 1), make([]bool, 1)
	z := memo.keep(0, Sigmoid(MatMul(Leaf(x), w)))
	eye := tensor.Eye(4)
	root := Add(Mul(z, z), Temp(eye)) // z is read twice
	want, kept := root.Val.Clone(), z.Val
	keptBefore := kept.Clone()

	ops, leaves, params := graphNodes(root)
	if len(params) != 1 || len(leaves) != 2 {
		t.Fatalf("the graph has %d parameters and %d leaves, want 1 and 2", len(params), len(leaves))
	}
	recycled := []*tensor.Matrix{eye}
	for _, n := range ops {
		if n != root && n != z {
			recycled = append(recycled, n.Val)
		}
	}

	got := Release(root)
	if !sameBits(got, want) {
		t.Fatalf("Release did not return the root's value")
	}
	if memo.vals[0] != kept || !sameBits(kept, keptBefore) {
		t.Fatalf("Release touched a value the memo keeps")
	}
	checkEnded(t, append(ops, leaves...), recycled, []*tensor.Matrix{x, w.Val, got, kept})
}

// TestGraphsEndConcurrently: goroutines that build, differentiate and release
// graphs at once share the node and tape pools, and each computes exactly what
// it computes alone; under -race the pools' hand-offs are checked too.
func TestGraphsEndConcurrently(t *testing.T) {
	const workers, rounds = 4, 40
	run := func(seed int64) []float64 {
		p := NewParams(seed)
		w, b := p.Xavier(3, 2), p.Zeros(1, 2)
		x := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(seed+1)))
		target := tensor.Randn(4, 2, 1, rand.New(rand.NewSource(seed+2)))
		var got []float64
		for i := 0; i < rounds; i++ {
			p.ZeroGrads()
			got = append(got, Backward(MSE(Tanh(AddBias(MatMul(Leaf(x), w), b)), target)))
			got = append(got, w.Grad.Data...)
			out := Release(Sigmoid(AddBias(MatMul(Temp(x.Clone()), w), b)))
			got = append(got, out.Data...)
			for j := range w.Val.Data {
				w.Val.Data[j] -= 0.1 * w.Grad.Data[j]
			}
		}
		return got
	}
	want := make([][]float64, workers)
	for g := range want {
		want[g] = run(int64(70 + g))
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := run(int64(70 + g))
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[g][i]) {
					t.Errorf("goroutine %d: value %d is %v, alone %v", g, i, v, want[g][i])
					return
				}
			}
		}()
	}
	wg.Wait()
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
	weights := tensor.Randn(4, 4, 1, r)
	for i, v := range weights.Data {
		weights.Data[i] = math.Abs(v)
	}
	for _, raw := range []*tensor.Matrix{weights, tensor.New(3, 3)} {
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
