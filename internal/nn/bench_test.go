package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkForwardBackward measures one training step of a small MLP, the
// inner loop of every model in this repository.
func BenchmarkForwardBackward(b *testing.B) {
	p := NewParams(1)
	l1 := NewLinear(p, 36, 16)
	l2 := NewLinear(p, 16, 3)
	x := tensor.Randn(36, 36, 1, rand.New(rand.NewSource(2)))
	y := tensor.Randn(36, 3, 1, rand.New(rand.NewSource(3)))
	opt := NewAdam(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ZeroGrads()
		loss := MSE(l2.Forward(Tanh(l1.Forward(Leaf(x)))), y)
		Backward(loss)
		opt.Step(p.All())
	}
}

// BenchmarkLSTMStep measures one cell step over a 36-row batch.
func BenchmarkLSTMStep(b *testing.B) {
	p := NewParams(4)
	cell := NewLSTMCell(p, 3, 16)
	x := Leaf(tensor.Randn(36, 3, 1, rand.New(rand.NewSource(5))))
	h, c := cell.InitState(36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Step(x, h, c)
	}
}

// BenchmarkGatedCausalConv measures the temporal block of Eq. 7 over an
// 8-step window.
func BenchmarkGatedCausalConv(b *testing.B) {
	p := NewParams(6)
	conv := NewGatedCausalConv(p, 16, 16, 3, 2)
	var xs []*Node
	for i := 0; i < 8; i++ {
		xs = append(xs, Leaf(tensor.Randn(36, 16, 1, rand.New(rand.NewSource(int64(i))))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(xs)
	}
}

// BenchmarkAPPNP measures the propagation layer of Eqs. 8-9.
func BenchmarkAPPNP(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	z := Leaf(tensor.Randn(36, 16, 1, r))
	adj := Leaf(tensor.SoftmaxRows(tensor.Randn(36, 36, 1, r)))
	norm := NormalizeAdjacency(adj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APPNP(z, norm, 0.2, 3)
	}
}
