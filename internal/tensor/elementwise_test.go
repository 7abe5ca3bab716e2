package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fmath"
)

// nanFirst is x86's rule for an operation with operands a and b (in the
// kernel's source order) whose exact result is r: where a is a NaN its
// payload survives, else where b is one b's does. The tests make quiet NaNs
// only, so none needs quieting.
func nanFirst(a, b, r float64) float64 {
	switch {
	case math.IsNaN(a):
		return a
	case math.IsNaN(b):
		return b
	}
	return r
}

func add(a, b float64) float64 { return nanFirst(a, b, a+b) }
func sub(a, b float64) float64 { return nanFirst(a, b, a-b) }
func mul(a, b float64) float64 { return nanFirst(a, b, a*b) }
func div(a, b float64) float64 { return nanFirst(a, b, a/b) }

// sameBits reports whether got and want hold the same bits; without
// payloads, two NaNs count as the same (a Go loop's NaN is the compiler's
// choice of operand).
func sameBits(got, want []float64, payloads bool) int {
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && (payloads || !math.IsNaN(g) || !math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// TestElementwiseMatchesScalar holds every element-wise kernel, and the
// matrix operations built on them, to its scalar loop bit for bit at every
// length from 0 to 37: through the assembly's sixteen-wide loop, its
// four-wide loop and its scalar tail, and the Go loops with fmath.AVX2
// cleared. The scalar loops spell out which operand's NaN payload an
// operation keeps (nanFirst), as the assembly orders its sources; the
// entries are NaNs with distinct payloads in every operand, ±0, ±Inf,
// subnormals, ones (so 1 − t·t and 1 − s meet zero) and normal values. Each
// kernel with a dst also runs in place, dst the same slice as its first
// operand.
func TestElementwiseMatchesScalar(t *testing.T) {
	onEveryPath(t, testElementwiseMatchesScalar)
}

func testElementwiseMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	payload := uint64(0)
	entry := func(site uint64) float64 {
		switch p := r.Float64(); {
		case p < 0.06:
			payload++
			return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(r.Intn(2))<<63 | site<<40 | payload)
		case p < 0.12:
			return math.Copysign(0, float64(1-2*r.Intn(2)))
		case p < 0.16:
			return math.Inf(1 - 2*r.Intn(2))
		case p < 0.2:
			return math.Copysign(math.Float64frombits(1+uint64(r.Int63n(1<<52-1))), float64(1-2*r.Intn(2)))
		case p < 0.25:
			return math.Copysign(1, float64(1-2*r.Intn(2)))
		default:
			return r.NormFloat64() * math.Exp2(float64(r.Intn(41)-20))
		}
	}
	vec := func(n int, site uint64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = entry(site)
		}
		return v
	}
	payloads := fmath.AVX2
	type binary struct {
		name string
		f    func(dst, x, y []float64)
		ref  func(d, x, y float64) float64 // the new dst[i]
	}
	binaries := []binary{
		{"AddVec", AddVec, func(_, x, y float64) float64 { return add(x, y) }},
		{"subVec", subVec, func(_, x, y float64) float64 { return sub(x, y) }},
		{"MulVec", MulVec, func(_, x, y float64) float64 { return mul(x, y) }},
		{"MulAccVec", MulAccVec, func(d, x, y float64) float64 { return add(d, mul(x, y)) }},
		{"TanhGradVec", TanhGradVec, func(d, g, t float64) float64 { return add(mul(sub(1, mul(t, t)), g), d) }},
		{"SigmoidGradVec", SigmoidGradVec, func(d, g, s float64) float64 { return add(mul(sub(1, s), mul(g, s)), d) }},
	}
	type scalar struct {
		name string
		f    func(dst, x []float64, k float64)
		ref  func(d, x, k float64) float64
	}
	scalars := []scalar{
		{"ScaleVec", ScaleVec, func(_, x, k float64) float64 { return mul(x, k) }},
		{"AddConstVec", AddConstVec, func(_, x, k float64) float64 { return add(x, k) }},
		{"ScaleAccVec", ScaleAccVec, func(d, x, k float64) float64 { return add(d, mul(x, k)) }},
	}
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 8; trial++ {
			d0, x, y := vec(n, 1), vec(n, 2), vec(n, 3)
			for _, op := range binaries {
				want := make([]float64, n)
				for i := range want {
					want[i] = op.ref(d0[i], x[i], y[i])
				}
				got := append([]float64(nil), d0...)
				op.f(got, x, y)
				if i := sameBits(got, want, payloads); i >= 0 {
					t.Fatalf("%s n=%d: element %d is %x (%v), want %x (%v)", op.name, n, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
				// In place: dst is x.
				for i := range want {
					want[i] = op.ref(x[i], x[i], y[i])
				}
				got = append([]float64(nil), x...)
				op.f(got, got, y)
				if i := sameBits(got, want, payloads); i >= 0 {
					t.Fatalf("%s in place n=%d: element %d differs", op.name, n, i)
				}
			}
			k := entry(4)
			for _, op := range scalars {
				want := make([]float64, n)
				for i := range want {
					want[i] = op.ref(d0[i], x[i], k)
				}
				got := append([]float64(nil), d0...)
				op.f(got, x, k)
				if i := sameBits(got, want, payloads); i >= 0 {
					t.Fatalf("%s n=%d k=%v: element %d is %x (%v), want %x (%v)", op.name, n, k, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
				for i := range want {
					want[i] = op.ref(x[i], x[i], k)
				}
				got = append([]float64(nil), x...)
				op.f(got, got, k)
				if i := sameBits(got, want, payloads); i >= 0 {
					t.Fatalf("%s in place n=%d: element %d differs", op.name, n, i)
				}
			}
			testAdamMatchesScalar(t, n, vec, payloads)
		}
	}
	testMatrixOpsMatchScalar(t, entry, payloads)
}

// testAdamMatchesScalar holds AdamVec to its scalar loop on one draw of
// parameters, moments and gradients, with and without the decay.
func testAdamMatchesScalar(t *testing.T, n int, vec func(int, uint64) []float64, payloads bool) {
	val, m, v, g := vec(n, 5), vec(n, 6), vec(n, 7), vec(n, 8)
	for _, decays := range []bool{false, true} {
		c := AdamConsts{
			Beta1: 0.9, OneMinusBeta1: 1 - 0.9, Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
			Correct1: 1 - fmath.Pow(0.9, 3), Correct2: 1 - fmath.Pow(0.999, 3),
			LR: 0.02, Eps: 1e-8, Decay: 0.02 * 1e-3, Decays: decays,
		}
		wantVal, wantM, wantV := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range g {
			mi := add(mul(c.OneMinusBeta1, g[i]), mul(m[i], c.Beta1))
			vi := add(mul(g[i], mul(c.OneMinusBeta2, g[i])), mul(v[i], c.Beta2))
			sq := div(vi, c.Correct2)
			sq = nanFirst(sq, sq, math.Sqrt(sq))
			p := sub(val[i], div(mul(div(mi, c.Correct1), c.LR), add(sq, c.Eps)))
			if decays {
				p = sub(p, mul(c.Decay, p))
			}
			wantVal[i], wantM[i], wantV[i] = p, mi, vi
		}
		gotVal, gotM, gotV := append([]float64(nil), val...), append([]float64(nil), m...), append([]float64(nil), v...)
		AdamVec(gotVal, gotM, gotV, g, &c)
		for _, s := range []struct {
			name      string
			got, want []float64
		}{{"val", gotVal, wantVal}, {"m", gotM, wantM}, {"v", gotV, wantV}} {
			if i := sameBits(s.got, s.want, payloads); i >= 0 {
				t.Fatalf("AdamVec n=%d decays=%v: %s[%d] is %x, want %x", n, decays, s.name, i,
					math.Float64bits(s.got[i]), math.Float64bits(s.want[i]))
			}
		}
	}
}

// testMatrixOpsMatchScalar holds the matrix operations to their scalar
// loops over shapes up to 5×9.
func testMatrixOpsMatchScalar(t *testing.T, entry func(uint64) float64, payloads bool) {
	fill := func(rows, cols int, site uint64) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = entry(site)
		}
		return m
	}
	for rows := 1; rows <= 5; rows++ {
		for cols := 1; cols <= 9; cols++ {
			a, b, v := fill(rows, cols, 1), fill(rows, cols, 2), fill(1, cols, 3)
			k := entry(4)
			want := func(f func(i, j int) float64) []float64 {
				w := make([]float64, rows*cols)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						w[i*cols+j] = f(i, j)
					}
				}
				return w
			}
			inPlace := a.Clone()
			AddInPlace(inPlace, b)
			for _, c := range []struct {
				name string
				got  *Matrix
				want []float64
			}{
				{"Add", Add(a, b), want(func(i, j int) float64 { return add(a.At(i, j), b.At(i, j)) })},
				{"AddInPlace", inPlace, want(func(i, j int) float64 { return add(a.At(i, j), b.At(i, j)) })},
				{"Sub", Sub(a, b), want(func(i, j int) float64 { return sub(a.At(i, j), b.At(i, j)) })},
				{"Hadamard", Hadamard(a, b), want(func(i, j int) float64 { return mul(a.At(i, j), b.At(i, j)) })},
				{"Scale", Scale(a, k), want(func(i, j int) float64 { return mul(a.At(i, j), k) })},
				{"AddRowVector", AddRowVector(a, v), want(func(i, j int) float64 { return add(a.At(i, j), v.Data[j]) })},
			} {
				if i := sameBits(c.got.Data, c.want, payloads); i >= 0 || !SameShape(c.got, a) {
					t.Fatalf("%s %dx%d: element %d differs", c.name, rows, cols, i)
				}
			}
			sums, wantSums := v.Clone(), v.Clone()
			AddRowsInto(sums.Data, a)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					wantSums.Data[j] = add(a.At(i, j), wantSums.Data[j])
				}
			}
			if i := sameBits(sums.Data, wantSums.Data, payloads); i >= 0 {
				t.Fatalf("AddRowsInto %dx%d: column %d differs", rows, cols, i)
			}
			at := Transpose(a)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if math.Float64bits(at.At(j, i)) != math.Float64bits(a.At(i, j)) {
						t.Fatalf("Transpose %dx%d: (%d,%d) differs", rows, cols, j, i)
					}
				}
			}
		}
	}
}

// TestNewFullOutputsOverwriteRecycled recycles matrices full of NaNs and
// checks that every operation whose output skips New's clear writes all of
// it.
func TestNewFullOutputsOverwriteRecycled(t *testing.T) {
	a := FromSlice(3, 5, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for _, c := range []struct {
		name string
		f    func() *Matrix
	}{
		{"Add", func() *Matrix { return Add(a, a) }},
		{"Sub", func() *Matrix { return Sub(a, a) }},
		{"Hadamard", func() *Matrix { return Hadamard(a, a) }},
		{"Scale", func() *Matrix { return Scale(a, 2) }},
		{"AddRowVector", func() *Matrix { return AddRowVector(a, New(1, 5)) }},
		{"Transpose", func() *Matrix { return Transpose(a) }},
	} {
		for i := 0; i < 4; i++ {
			dirty := New(3, 5)
			for j := range dirty.Data {
				dirty.Data[j] = math.NaN()
			}
			Recycle(dirty)
		}
		for _, v := range c.f().Data {
			if math.IsNaN(v) {
				t.Fatalf("%s left recycled storage unwritten", c.name)
			}
		}
	}
}

// BenchmarkElementwise times the element-wise operations on the DDGNN's
// 36×16 feature matrices, the shape most of its graph's operations have.
func BenchmarkElementwise(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := Randn(36, 16, 1, r), Randn(36, 16, 1, r)
	v := Randn(1, 16, 1, r)
	out := New(36, 16)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Add", func() { Recycle(Add(x, y)) }},
		{"AddInPlace", func() { AddInPlace(out, x) }},
		{"Hadamard", func() { Recycle(Hadamard(x, y)) }},
		{"Scale", func() { Recycle(Scale(x, 0.8)) }},
		{"AddRowVector", func() { Recycle(AddRowVector(x, v)) }},
		{"Transpose", func() { Recycle(Transpose(x)) }},
		{"MulAccVec", func() { MulAccVec(out.Data, x.Data, y.Data) }},
		{"TanhGradVec", func() { TanhGradVec(out.Data, x.Data, y.Data) }},
	} {
		b.Run(fmt.Sprintf("%s/36x16", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
	}
}
