package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := Randn(64, 64, 1, r)
	y := Randn(64, 64, 1, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkMatMulShapes times the DDGNN's own products over 36 cells. The
// forward MatMuls: the input lift (K = 3 to F = 16), an F×F layer, APPNP's
// adjacency product and the output head. Then the two orientations
// nn.MatMul's backward runs, named by the stored shapes with a T on the
// operand read transposed: b.grad += aᵀ·g through MatMulTAccum for an F×F
// weight (16×36·36×16) and for the adjacency (36×36ᵀ·36×16), and
// a.grad += g·bᵀ through a recycled transpose of an F×F weight.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{{36, 3, 16}, {36, 16, 16}, {36, 36, 16}, {36, 16, 3}} {
		b.Run(fmt.Sprintf("%dx%d_%dx%d", s.m, s.k, s.k, s.n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			x := Randn(s.m, s.k, 1, r)
			y := Randn(s.k, s.n, 1, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Recycle(MatMul(x, y))
			}
		})
	}
	for _, s := range []struct{ m, k, n int }{{36, 16, 16}, {36, 36, 16}} {
		b.Run(fmt.Sprintf("%dx%dT_%dx%d", s.m, s.k, s.m, s.n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			a := Randn(s.m, s.k, 1, r)
			g := Randn(s.m, s.n, 1, r)
			out := New(s.k, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTAccum(out, a, g)
			}
		})
	}
	b.Run("36x16_16x16T", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		g := Randn(36, 16, 1, r)
		w := Randn(16, 16, 1, r)
		out := New(36, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wt := Transpose(w)
			MatMulAccum(out, g, wt)
			Recycle(wt)
		}
	})
}

func BenchmarkMatMulAccum64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := Randn(64, 64, 1, r)
	y := Randn(64, 64, 1, r)
	out := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAccum(out, x, y)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := Randn(64, 64, 1, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
}
