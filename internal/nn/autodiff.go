// Package nn is a small reverse-mode automatic differentiation engine and a
// set of neural-network building blocks (linear layers, gated dilated causal
// convolutions, an LSTM cell, Adam) sufficient to train the three task-demand
// predictors of the DATA-WA paper — LSTM, Graph-WaveNet and DDGNN — and its
// task value function on a CPU.
//
// Its bits are the same on every CPU. The matrix products run through
// internal/tensor's kernel, AVX2 assembly where the CPU has it and pure Go
// elsewhere, both with the plain loop's bits. Exp, Log, Tanh and Pow come
// from internal/fmath, never from math, whose amd64 assembly differs in the
// last bit and with FMA; Tanh and Sigmoid run through fmath's slice kernels,
// four lanes to an AVX2 register with the scalar functions' bits.
//
// Values are matrices (internal/tensor). A graph is data, not code: each
// operation returns a *Node that records its kind, its operands (at most two)
// and the constant its gradient needs, and Backward(root) topologically sorts
// the graph and runs every node's backward step by kind, accumulating
// gradients into every node that requires them. Nodes come from a
// package-level pool, as tensor storage does: Backward hands every node and
// every operation's storage back for the next graph's operations, and Release
// does the same for a graph that inference built and no Backward will. So a
// warm model evaluation allocates only what it returns. Fit is the one
// training loop over such graphs. All computation is deterministic given
// seeded parameters.
//
// Three kinds of node are no operation. A Variable (a parameter) is the
// caller's and outlives every graph. A Leaf belongs to the one graph it is
// used in, its value to the caller. A Temp belongs to its graph with its
// value, which ending the graph recycles.
package nn

import (
	"fmt"
	"sync"

	"repro/internal/fmath"
	"repro/internal/tensor"
)

// kind is what a node is: a parameter, a leaf, or the operation that computed
// its value.
type kind uint8

const (
	kindParam kind = iota // Variable: the caller's node and value
	kindLeaf              // Leaf: the graph's node over the caller's value
	kindTemp              // Temp: the graph's node and value
	opMatMul
	opTranspose
	opAdd
	opSub
	opMul
	opScale
	opAddConst
	opAddBias
	opTanh
	opSigmoid
	opReLU
	opPowElem
	opRowSum
	opScaleRows
	opScaleCols
	opSoftmaxRows
	opMeanAll
	opBCE
	opConcatCols
)

// Node is one vertex of the computation graph.
type Node struct {
	// Val holds the forward value.
	Val *tensor.Matrix
	// Grad holds ∂loss/∂Val after Backward; nil until first accumulation.
	Grad *tensor.Matrix

	a, b   *Node          // the operands in order; b is nil for a unary operation
	target *tensor.Matrix // BCE's target, the caller's
	k      float64        // Scale's factor, PowElem's exponent
	kind   kind
	kept   bool // Val belongs to a StepMemo: ending the graph leaves it alone
	seen   bool // Backward's and Release's visited mark
}

// nodePool holds the nodes of ended graphs for the next graph to reuse.
var nodePool sync.Pool

// newNode returns a node of kind k with value val and operands a and b, a
// pooled one when the pool has one.
//
//datawa:hotpath
func newNode(k kind, val *tensor.Matrix, a, b *Node) *Node {
	n, _ := nodePool.Get().(*Node)
	if n == nil {
		n = new(Node) //datawa:alloc a pool miss: the first graphs, and the first after a GC empties the pool
	}
	n.Val, n.a, n.b, n.kind = val, a, b, k
	return n
}

// end hands n back to the pool, with its gradient, and with its value unless
// that is the caller's or a memo's. A parameter is the caller's and stays.
//
//datawa:hotpath
func (n *Node) end() {
	if n.kind == kindParam {
		return
	}
	if n.Grad != nil {
		tensor.Recycle(n.Grad)
	}
	if n.Val != nil && n.kind != kindLeaf && !n.kept {
		tensor.Recycle(n.Val)
	}
	*n = Node{}
	nodePool.Put(n)
}

// Leaf wraps a constant matrix that does not require gradients. The node
// belongs to the graph it is used in, which hands it back to the pool when it
// ends; the matrix stays the caller's.
//
//datawa:hotpath
func Leaf(m *tensor.Matrix) *Node { return newNode(kindLeaf, m, nil, nil) }

// Temp is Leaf for a matrix the graph owns: ending the graph hands the matrix
// to tensor's pool too. It is for a constant the forward computes itself.
//
//datawa:hotpath
func Temp(m *tensor.Matrix) *Node { return newNode(kindTemp, m, nil, nil) }

// Variable wraps a matrix that accumulates gradients (a trainable parameter).
// The node is the caller's: no graph ends it.
func Variable(m *tensor.Matrix) *Node { return &Node{Val: m, kind: kindParam} }

// grad returns the gradient buffer, allocating it on first use.
func (n *Node) grad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = tensor.New(n.Val.Rows, n.Val.Cols)
	}
	return n.Grad
}

// needsBackward reports whether gradients must flow into n: it is a parameter
// or an operation.
func (n *Node) needsBackward() bool { return n.kind != kindLeaf && n.kind != kindTemp }

// operand returns n's i-th operand, nil past the last.
func (n *Node) operand(i int) *Node {
	switch i {
	case 0:
		return n.a
	case 1:
		return n.b
	}
	return nil
}

// tape is the scratch of one Backward or Release: the depth-first stack and
// the graph's nodes in the order they are ended. It comes from tapePool and
// goes back there, so ending a graph allocates nothing once the tapes have
// grown.
type tape struct {
	stack []frame
	nodes []*Node
}

type frame struct {
	n *Node
	i int // the next operand to visit
}

var tapePool sync.Pool

//datawa:hotpath
func getTape() *tape {
	t, _ := tapePool.Get().(*tape)
	if t == nil {
		t = new(tape) //datawa:alloc a pool miss: the first graphs, and the first after a GC empties the pool
	}
	return t
}

//datawa:hotpath
func (t *tape) put() {
	clear(t.nodes)
	t.stack, t.nodes = t.stack[:0], t.nodes[:0]
	tapePool.Put(t)
}

// Backward runs reverse-mode differentiation from root, which must be a
// 1×1 scalar (a loss), and returns root's value. It seeds ∂root/∂root = 1,
// propagates, and ends the graph: right after an operation's backward step
// has run, nothing reads its value or gradient again, so both go back to
// tensor's pool for the next graph's operations (tensor.Recycle), and the node
// to the node pool. Leaves go back to the node pool once every operation that
// reads them has run; their values, like parameters, are the caller's. The
// graph must not be used afterwards.
//
//datawa:hotpath
func Backward(root *Node) float64 {
	if root.Val.Rows != 1 || root.Val.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward root must be scalar, got %dx%d", root.Val.Rows, root.Val.Cols))
	}
	loss := root.Val.Data[0]
	// The graph in topological order, by iterative post-order DFS over each
	// node's first operand, then its second. Parameters stay out: they have
	// nothing to run and are not the graph's to end.
	t := getTape()
	t.stack = append(t.stack, frame{root, 0})
	for len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		if c := f.n.operand(f.i); c != nil {
			f.i++
			if c.kind != kindParam && !c.seen {
				c.seen = true
				t.stack = append(t.stack, frame{c, 0})
			}
			continue
		}
		t.nodes = append(t.nodes, f.n)
		t.stack = t.stack[:len(t.stack)-1]
	}
	root.grad().Data[0] = 1
	// In reverse topological order a node comes after every node that reads
	// it: once it has run, nothing reads it again.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.kind > kindTemp && n.Grad != nil {
			n.backward()
		}
		n.end()
	}
	t.put()
	return loss
}

// Release ends a graph no Backward will, an inference forward: it returns
// root's value after handing every node, and the value of every operation and
// Temp but root, back to the pools for the next graph. Leaves' values,
// parameters and values a StepMemo keeps are untouched. The graph must not be
// used afterwards.
//
//datawa:hotpath
func Release(root *Node) *tensor.Matrix {
	val := root.Val
	if root.kind == kindParam {
		return val
	}
	root.Val = nil // keeps root's value out of the pool
	t := getTape()
	root.seen = true
	t.nodes = append(t.nodes, root)
	for i := 0; i < len(t.nodes); i++ {
		n := t.nodes[i]
		for _, c := range [2]*Node{n.a, n.b} {
			if c != nil && c.kind != kindParam && !c.seen {
				c.seen = true
				t.nodes = append(t.nodes, c)
			}
		}
	}
	// Only now, when the walk no longer reads a mark: an ended node may be
	// another goroutine's the moment it is back in the pool.
	for _, n := range t.nodes {
		n.end()
	}
	t.put()
	return val
}

// backward accumulates the operation's gradient, n.Grad, into its operands'.
//
//datawa:hotpath
func (n *Node) backward() {
	a, b, out := n.a, n.b, n
	switch n.kind {
	case opMatMul:
		if a.needsBackward() {
			bt := tensor.Transpose(b.Val)
			tensor.MatMulAccum(a.grad(), out.Grad, bt)
			tensor.Recycle(bt)
		}
		if b.needsBackward() {
			tensor.MatMulTAccum(b.grad(), a.Val, out.Grad)
		}
	case opTranspose:
		if a.needsBackward() {
			gt := tensor.Transpose(out.Grad)
			tensor.AddInPlace(a.grad(), gt)
			tensor.Recycle(gt)
		}
	case opAdd:
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if b.needsBackward() {
			tensor.AddInPlace(b.grad(), out.Grad)
		}
	case opSub:
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if b.needsBackward() {
			neg := tensor.Scale(out.Grad, -1)
			tensor.AddInPlace(b.grad(), neg)
			tensor.Recycle(neg)
		}
	case opMul:
		if a.needsBackward() {
			ga := tensor.Hadamard(out.Grad, b.Val)
			tensor.AddInPlace(a.grad(), ga)
			tensor.Recycle(ga)
		}
		if b.needsBackward() {
			gb := tensor.Hadamard(out.Grad, a.Val)
			tensor.AddInPlace(b.grad(), gb)
			tensor.Recycle(gb)
		}
	case opScale:
		if a.needsBackward() {
			ga := tensor.Scale(out.Grad, n.k)
			tensor.AddInPlace(a.grad(), ga)
			tensor.Recycle(ga)
		}
	case opAddConst:
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
	case opAddBias:
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if b.needsBackward() {
			g := b.grad()
			for i := 0; i < out.Grad.Rows; i++ {
				for j := 0; j < out.Grad.Cols; j++ {
					g.Data[j] += out.Grad.At(i, j)
				}
			}
		}
	case opTanh:
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				t := out.Val.Data[i]
				g.Data[i] += out.Grad.Data[i] * (1 - t*t)
			}
		}
	case opSigmoid:
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				s := out.Val.Data[i]
				g.Data[i] += out.Grad.Data[i] * s * (1 - s)
			}
		}
	case opReLU:
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				if a.Val.Data[i] > 0 {
					g.Data[i] += out.Grad.Data[i]
				}
			}
		}
	case opPowElem:
		if a.needsBackward() {
			g, p := a.grad(), n.k
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * p * fmath.Pow(a.Val.Data[i], p-1)
			}
		}
	case opRowSum:
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				gi := out.Grad.Data[i]
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += gi
				}
			}
		}
	case opScaleRows:
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				vi := b.Val.Data[i]
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += out.Grad.At(i, j) * vi
				}
			}
		}
		if b.needsBackward() {
			g := b.grad()
			for i := 0; i < a.Val.Rows; i++ {
				s := 0.0
				for j := 0; j < a.Val.Cols; j++ {
					s += out.Grad.At(i, j) * a.Val.At(i, j)
				}
				g.Data[i] += s
			}
		}
	case opScaleCols:
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += out.Grad.At(i, j) * b.Val.Data[j]
				}
			}
		}
		if b.needsBackward() {
			g := b.grad()
			for j := 0; j < a.Val.Cols; j++ {
				s := 0.0
				for i := 0; i < a.Val.Rows; i++ {
					s += out.Grad.At(i, j) * a.Val.At(i, j)
				}
				g.Data[j] += s
			}
		}
	case opSoftmaxRows:
		if a.needsBackward() {
			g, val := a.grad(), out.Val
			for i := 0; i < val.Rows; i++ {
				dot := 0.0
				for j := 0; j < val.Cols; j++ {
					dot += out.Grad.At(i, j) * val.At(i, j)
				}
				for j := 0; j < val.Cols; j++ {
					s := val.At(i, j)
					g.Data[i*val.Cols+j] += s * (out.Grad.At(i, j) - dot)
				}
			}
		}
	case opMeanAll:
		if a.needsBackward() {
			g := a.grad()
			k := out.Grad.Data[0] / float64(len(a.Val.Data))
			for i := range g.Data {
				g.Data[i] += k
			}
		}
	case opBCE:
		if a.needsBackward() {
			g := a.grad()
			k := out.Grad.Data[0] / float64(len(a.Val.Data))
			for i := range g.Data {
				p := clampProb(a.Val.Data[i])
				y := n.target.Data[i]
				g.Data[i] += k * (p - y) / (p * (1 - p))
			}
		}
	case opConcatCols:
		rows, p, q := a.Val.Rows, a.Val.Cols, b.Val.Cols
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < rows; i++ {
				for j := 0; j < p; j++ {
					g.Data[i*p+j] += out.Grad.Data[i*(p+q)+j]
				}
			}
		}
		if b.needsBackward() {
			g := b.grad()
			for i := 0; i < rows; i++ {
				for j := 0; j < q; j++ {
					g.Data[i*q+j] += out.Grad.Data[i*(p+q)+p+j]
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Primitive operations
// ---------------------------------------------------------------------------

// MatMul returns a·b.
//
//datawa:hotpath
func MatMul(a, b *Node) *Node {
	return newNode(opMatMul, tensor.MatMul(a.Val, b.Val), a, b)
}

// Transpose returns aᵀ.
//
//datawa:hotpath
func Transpose(a *Node) *Node {
	return newNode(opTranspose, tensor.Transpose(a.Val), a, nil)
}

// Add returns a + b (same shape).
//
//datawa:hotpath
func Add(a, b *Node) *Node {
	return newNode(opAdd, tensor.Add(a.Val, b.Val), a, b)
}

// Sub returns a − b.
//
//datawa:hotpath
func Sub(a, b *Node) *Node {
	return newNode(opSub, tensor.Sub(a.Val, b.Val), a, b)
}

// Mul returns the element-wise product a ⊙ b.
//
//datawa:hotpath
func Mul(a, b *Node) *Node {
	return newNode(opMul, tensor.Hadamard(a.Val, b.Val), a, b)
}

// Scale returns k·a for a constant k.
//
//datawa:hotpath
func Scale(a *Node, k float64) *Node {
	out := newNode(opScale, tensor.Scale(a.Val, k), a, nil)
	out.k = k
	return out
}

// AddConst returns a + k element-wise for a constant k.
//
//datawa:hotpath
func AddConst(a *Node, k float64) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		val.Data[i] = v + k
	}
	return newNode(opAddConst, val, a, nil)
}

// AddBias returns a + bias, broadcasting the 1×Cols bias over rows.
//
//datawa:hotpath
func AddBias(a, bias *Node) *Node {
	return newNode(opAddBias, tensor.AddRowVector(a.Val, bias.Val), a, bias)
}

// Tanh returns tanh(a) element-wise.
//
//datawa:hotpath
func Tanh(a *Node) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	fmath.TanhSlice(val.Data, a.Val.Data)
	return newNode(opTanh, val, a, nil)
}

// Sigmoid returns σ(a) = 1/(1+e^−a) element-wise.
//
//datawa:hotpath
func Sigmoid(a *Node) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	fmath.SigmoidSlice(val.Data, a.Val.Data)
	return newNode(opSigmoid, val, a, nil)
}

// ReLU returns max(a, 0) element-wise.
//
//datawa:hotpath
func ReLU(a *Node) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		if v > 0 {
			val.Data[i] = v
		}
	}
	return newNode(opReLU, val, a, nil)
}

// PowElem returns a^p element-wise. Inputs must be positive where p is
// fractional; callers guarantee this (used for degree^{-1/2}).
//
//datawa:hotpath
func PowElem(a *Node, p float64) *Node {
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		val.Data[i] = fmath.Pow(v, p)
	}
	out := newNode(opPowElem, val, a, nil)
	out.k = p
	return out
}

// RowSum returns the n×1 vector of row sums of the n×m input.
//
//datawa:hotpath
func RowSum(a *Node) *Node {
	val := tensor.New(a.Val.Rows, 1)
	for i := 0; i < a.Val.Rows; i++ {
		s := 0.0
		for j := 0; j < a.Val.Cols; j++ {
			s += a.Val.At(i, j)
		}
		val.Data[i] = s
	}
	return newNode(opRowSum, val, a, nil)
}

// ScaleRows multiplies row i of the n×m matrix a by v_i (v is n×1):
// out_ij = a_ij · v_i.
//
//datawa:hotpath
func ScaleRows(a, v *Node) *Node {
	if v.Val.Cols != 1 || v.Val.Rows != a.Val.Rows {
		panic("nn: ScaleRows wants v of shape n x 1 matching a's rows")
	}
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i := 0; i < a.Val.Rows; i++ {
		vi := v.Val.Data[i]
		for j := 0; j < a.Val.Cols; j++ {
			val.Data[i*a.Val.Cols+j] = a.Val.At(i, j) * vi
		}
	}
	return newNode(opScaleRows, val, a, v)
}

// ScaleCols multiplies column j of the n×m matrix a by v_j (v is 1×m):
// out_ij = a_ij · v_j.
//
//datawa:hotpath
func ScaleCols(a, v *Node) *Node {
	if v.Val.Rows != 1 || v.Val.Cols != a.Val.Cols {
		panic("nn: ScaleCols wants v of shape 1 x m matching a's cols")
	}
	val := tensor.New(a.Val.Rows, a.Val.Cols)
	for i := 0; i < a.Val.Rows; i++ {
		for j := 0; j < a.Val.Cols; j++ {
			val.Data[i*a.Val.Cols+j] = a.Val.At(i, j) * v.Val.Data[j]
		}
	}
	return newNode(opScaleCols, val, a, v)
}

// SoftmaxRows returns the row-wise softmax of a.
//
//datawa:hotpath
func SoftmaxRows(a *Node) *Node {
	return newNode(opSoftmaxRows, tensor.SoftmaxRows(a.Val), a, nil)
}

// MeanAll returns the scalar mean of all elements of a.
//
//datawa:hotpath
func MeanAll(a *Node) *Node {
	val := tensor.New(1, 1)
	val.Data[0] = tensor.Mean(a.Val)
	return newNode(opMeanAll, val, a, nil)
}

// MSE returns the scalar mean squared error between pred and target.
// target gradients are not propagated.
//
//datawa:hotpath
func MSE(pred *Node, target *tensor.Matrix) *Node {
	diff := Sub(pred, Leaf(target))
	return MeanAll(Mul(diff, diff))
}

// BCE returns the scalar binary cross-entropy between probabilities pred
// (in (0,1); values are clamped to [eps, 1-eps]) and binary target, which
// stays the caller's.
//
//datawa:hotpath
func BCE(pred *Node, target *tensor.Matrix) *Node {
	val := tensor.New(1, 1)
	loss := 0.0
	for i, p := range pred.Val.Data {
		p = clampProb(p)
		y := target.Data[i]
		loss += -(y*fmath.Log(p) + (1-y)*fmath.Log(1-p))
	}
	val.Data[0] = loss / float64(len(pred.Val.Data))
	out := newNode(opBCE, val, pred, nil)
	out.target = target
	return out
}

// clampProb clamps a probability to [eps, 1−eps], BCE's domain.
func clampProb(p float64) float64 {
	const eps = 1e-7
	if p < eps {
		return eps
	} else if p > 1-eps {
		return 1 - eps
	}
	return p
}

// ConcatCols concatenates a (n×p) and b (n×q) into an n×(p+q) matrix.
//
//datawa:hotpath
func ConcatCols(a, b *Node) *Node {
	if a.Val.Rows != b.Val.Rows {
		panic("nn: ConcatCols row mismatch")
	}
	n, p, q := a.Val.Rows, a.Val.Cols, b.Val.Cols
	val := tensor.New(n, p+q)
	for i := 0; i < n; i++ {
		copy(val.Data[i*(p+q):i*(p+q)+p], a.Val.Data[i*p:(i+1)*p])
		copy(val.Data[i*(p+q)+p:(i+1)*(p+q)], b.Val.Data[i*q:(i+1)*q])
	}
	return newNode(opConcatCols, val, a, b)
}
