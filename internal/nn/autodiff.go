// Package nn is a small reverse-mode automatic differentiation engine and a
// set of neural-network building blocks (linear layers, gated dilated causal
// convolutions, an LSTM cell, Adam) sufficient to train the three task-demand
// predictors of the DATA-WA paper — LSTM, Graph-WaveNet and DDGNN — and its
// task value function on a CPU. The matrix products run through internal/tensor's kernel: SSE2
// assembly on amd64, pure Go elsewhere, both with the plain loop's bits.
//
// Values are matrices (internal/tensor). Each operation returns a new *Node
// recording its inputs and a backward closure; Backward(root) topologically
// sorts the graph, accumulates gradients into every node that requires them
// and hands every operation's storage back to tensor's pool. Fit is the one
// training loop over such graphs; Release frees a graph that inference built
// and no Backward will. All computation is deterministic given seeded
// parameters.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Node is one vertex of the computation graph.
type Node struct {
	// Val holds the forward value.
	Val *tensor.Matrix
	// Grad holds ∂loss/∂Val after Backward; nil until first accumulation.
	Grad *tensor.Matrix

	prev         []*Node
	back         func()
	requiresGrad bool
	seen         bool // Backward's visited mark
}

// Leaf wraps a constant matrix that does not require gradients.
func Leaf(m *tensor.Matrix) *Node { return &Node{Val: m} }

// Variable wraps a matrix that accumulates gradients (a trainable parameter).
func Variable(m *tensor.Matrix) *Node { return &Node{Val: m, requiresGrad: true} }

// grad returns the gradient buffer, allocating it on first use.
func (n *Node) grad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = tensor.New(n.Val.Rows, n.Val.Cols)
	}
	return n.Grad
}

// needsBackward reports whether gradients must flow into n.
func (n *Node) needsBackward() bool { return n.requiresGrad || n.back != nil }

// Backward runs reverse-mode differentiation from root, which must be a
// 1×1 scalar (a loss), and returns root's value. It seeds ∂root/∂root = 1,
// propagates, and ends the graph: right after an operation's backward closure
// has run, nothing reads its value or gradient again, so both go back to
// tensor's pool for the next graph's operations (tensor.Recycle). Leaves and
// parameters, which the caller owns, keep theirs. The graph must not be used
// afterwards.
func Backward(root *Node) float64 {
	if root.Val.Rows != 1 || root.Val.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward root must be scalar, got %dx%d", root.Val.Rows, root.Val.Cols))
	}
	loss := root.Val.Data[0]
	// The operations in topological order, by iterative post-order DFS.
	// Leaves and parameters have nothing to run or free.
	var topo []*Node
	type frame struct {
		n *Node
		i int
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.prev) {
			child := f.n.prev[f.i]
			f.i++
			if child.back != nil && !child.seen {
				child.seen = true
				stack = append(stack, frame{child, 0})
			}
			continue
		}
		topo = append(topo, f.n)
		stack = stack[:len(stack)-1]
	}
	root.grad().Data[0] = 1
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.back == nil {
			continue // a leaf or parameter root
		}
		if n.Grad != nil {
			n.back()
			tensor.Recycle(n.Grad)
			n.Grad = nil
		}
		tensor.Recycle(n.Val)
		n.Val = nil
	}
	return loss
}

// Release ends a graph no Backward will, an inference forward: it returns
// root's value after recycling the value of every other operation in the
// graph for the next graph's operations to reuse (tensor.Recycle). Leaves and
// parameters, which the caller owns, are untouched. The graph must not be
// used afterwards.
func Release(root *Node) *tensor.Matrix {
	val := root.Val
	root.Val = nil // marks a node as done; keeps root's value out of the pool
	stack := append([]*Node(nil), root.prev...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.back == nil || n.Val == nil {
			continue
		}
		tensor.Recycle(n.Val)
		n.Val = nil
		stack = append(stack, n.prev...)
	}
	return val
}

// ---------------------------------------------------------------------------
// Primitive operations
// ---------------------------------------------------------------------------

// MatMul returns a·b.
func MatMul(a, b *Node) *Node {
	out := &Node{Val: tensor.MatMul(a.Val, b.Val), prev: []*Node{a, b}}
	out.back = func() {
		if a.needsBackward() {
			bt := tensor.Transpose(b.Val)
			tensor.MatMulAccum(a.grad(), out.Grad, bt)
			tensor.Recycle(bt)
		}
		if b.needsBackward() {
			tensor.MatMulTAccum(b.grad(), a.Val, out.Grad)
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Node) *Node {
	out := &Node{Val: tensor.Transpose(a.Val), prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), tensor.Transpose(out.Grad))
		}
	}
	return out
}

// Add returns a + b (same shape).
func Add(a, b *Node) *Node {
	out := &Node{Val: tensor.Add(a.Val, b.Val), prev: []*Node{a, b}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if b.needsBackward() {
			tensor.AddInPlace(b.grad(), out.Grad)
		}
	}
	return out
}

// Sub returns a − b.
func Sub(a, b *Node) *Node {
	out := &Node{Val: tensor.Sub(a.Val, b.Val), prev: []*Node{a, b}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if b.needsBackward() {
			tensor.AddInPlace(b.grad(), tensor.Scale(out.Grad, -1))
		}
	}
	return out
}

// Mul returns the element-wise product a ⊙ b.
func Mul(a, b *Node) *Node {
	out := &Node{Val: tensor.Hadamard(a.Val, b.Val), prev: []*Node{a, b}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), tensor.Hadamard(out.Grad, b.Val))
		}
		if b.needsBackward() {
			tensor.AddInPlace(b.grad(), tensor.Hadamard(out.Grad, a.Val))
		}
	}
	return out
}

// Scale returns k·a for a constant k.
func Scale(a *Node, k float64) *Node {
	out := &Node{Val: tensor.Scale(a.Val, k), prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), tensor.Scale(out.Grad, k))
		}
	}
	return out
}

// AddConst returns a + k element-wise for a constant k.
func AddConst(a *Node, k float64) *Node {
	out := &Node{Val: tensor.Apply(a.Val, func(v float64) float64 { return v + k }), prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
	}
	return out
}

// AddBias returns a + bias, broadcasting the 1×Cols bias over rows.
func AddBias(a, bias *Node) *Node {
	out := &Node{Val: tensor.AddRowVector(a.Val, bias.Val), prev: []*Node{a, bias}}
	out.back = func() {
		if a.needsBackward() {
			tensor.AddInPlace(a.grad(), out.Grad)
		}
		if bias.needsBackward() {
			g := bias.grad()
			for i := 0; i < out.Grad.Rows; i++ {
				for j := 0; j < out.Grad.Cols; j++ {
					g.Data[j] += out.Grad.At(i, j)
				}
			}
		}
	}
	return out
}

// Tanh returns tanh(a) element-wise.
func Tanh(a *Node) *Node {
	val := tensor.Apply(a.Val, math.Tanh)
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				t := val.Data[i]
				g.Data[i] += out.Grad.Data[i] * (1 - t*t)
			}
		}
	}
	return out
}

// Sigmoid returns σ(a) element-wise.
func Sigmoid(a *Node) *Node {
	val := tensor.Apply(a.Val, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				s := val.Data[i]
				g.Data[i] += out.Grad.Data[i] * s * (1 - s)
			}
		}
	}
	return out
}

// ReLU returns max(a, 0) element-wise.
func ReLU(a *Node) *Node {
	val := tensor.Apply(a.Val, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				if a.Val.Data[i] > 0 {
					g.Data[i] += out.Grad.Data[i]
				}
			}
		}
	}
	return out
}

// PowElem returns a^p element-wise. Inputs must be positive where p is
// fractional; callers guarantee this (used for degree^{-1/2}).
func PowElem(a *Node, p float64) *Node {
	val := tensor.Apply(a.Val, func(v float64) float64 { return math.Pow(v, p) })
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * p * math.Pow(a.Val.Data[i], p-1)
			}
		}
	}
	return out
}

// RowSum returns the n×1 vector of row sums of the n×m input.
func RowSum(a *Node) *Node {
	val := tensor.New(a.Val.Rows, 1)
	for i := 0; i < a.Val.Rows; i++ {
		s := 0.0
		for j := 0; j < a.Val.Cols; j++ {
			s += a.Val.At(i, j)
		}
		val.Data[i] = s
	}
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				gi := out.Grad.Data[i]
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += gi
				}
			}
		}
	}
	return out
}

// ScaleRows multiplies row i of the n×m matrix a by v_i (v is n×1):
// out_ij = a_ij · v_i.
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
	out := &Node{Val: val, prev: []*Node{a, v}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				vi := v.Val.Data[i]
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += out.Grad.At(i, j) * vi
				}
			}
		}
		if v.needsBackward() {
			g := v.grad()
			for i := 0; i < a.Val.Rows; i++ {
				s := 0.0
				for j := 0; j < a.Val.Cols; j++ {
					s += out.Grad.At(i, j) * a.Val.At(i, j)
				}
				g.Data[i] += s
			}
		}
	}
	return out
}

// ScaleCols multiplies column j of the n×m matrix a by v_j (v is 1×m):
// out_ij = a_ij · v_j.
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
	out := &Node{Val: val, prev: []*Node{a, v}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < a.Val.Rows; i++ {
				for j := 0; j < a.Val.Cols; j++ {
					g.Data[i*a.Val.Cols+j] += out.Grad.At(i, j) * v.Val.Data[j]
				}
			}
		}
		if v.needsBackward() {
			g := v.grad()
			for j := 0; j < a.Val.Cols; j++ {
				s := 0.0
				for i := 0; i < a.Val.Rows; i++ {
					s += out.Grad.At(i, j) * a.Val.At(i, j)
				}
				g.Data[j] += s
			}
		}
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of a.
func SoftmaxRows(a *Node) *Node {
	val := tensor.SoftmaxRows(a.Val)
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if !a.needsBackward() {
			return
		}
		g := a.grad()
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
	return out
}

// MeanAll returns the scalar mean of all elements of a.
func MeanAll(a *Node) *Node {
	val := tensor.New(1, 1)
	val.Data[0] = tensor.Mean(a.Val)
	out := &Node{Val: val, prev: []*Node{a}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			k := out.Grad.Data[0] / float64(len(a.Val.Data))
			for i := range g.Data {
				g.Data[i] += k
			}
		}
	}
	return out
}

// MSE returns the scalar mean squared error between pred and target.
// target gradients are not propagated.
func MSE(pred *Node, target *tensor.Matrix) *Node {
	diff := Sub(pred, Leaf(target))
	return MeanAll(Mul(diff, diff))
}

// BCE returns the scalar binary cross-entropy between probabilities pred
// (in (0,1); values are clamped to [eps, 1-eps]) and binary target.
func BCE(pred *Node, target *tensor.Matrix) *Node {
	const eps = 1e-7
	val := tensor.New(1, 1)
	n := float64(len(pred.Val.Data))
	clamped := make([]float64, len(pred.Val.Data))
	loss := 0.0
	for i, p := range pred.Val.Data {
		if p < eps {
			p = eps
		} else if p > 1-eps {
			p = 1 - eps
		}
		clamped[i] = p
		y := target.Data[i]
		loss += -(y*math.Log(p) + (1-y)*math.Log(1-p))
	}
	val.Data[0] = loss / n
	out := &Node{Val: val, prev: []*Node{pred}}
	out.back = func() {
		if !pred.needsBackward() {
			return
		}
		g := pred.grad()
		k := out.Grad.Data[0] / n
		for i := range g.Data {
			p := clamped[i]
			y := target.Data[i]
			g.Data[i] += k * (p - y) / (p * (1 - p))
		}
	}
	return out
}

// ConcatCols concatenates a (n×p) and b (n×q) into an n×(p+q) matrix.
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
	out := &Node{Val: val, prev: []*Node{a, b}}
	out.back = func() {
		if a.needsBackward() {
			g := a.grad()
			for i := 0; i < n; i++ {
				for j := 0; j < p; j++ {
					g.Data[i*p+j] += out.Grad.Data[i*(p+q)+j]
				}
			}
		}
		if b.needsBackward() {
			g := b.grad()
			for i := 0; i < n; i++ {
				for j := 0; j < q; j++ {
					g.Data[i*q+j] += out.Grad.Data[i*(p+q)+p+j]
				}
			}
		}
	}
	return out
}
