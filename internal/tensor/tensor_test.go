package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fmath"
)

func approxEq(a, b *Matrix, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Error("fresh matrix should be zero")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone must not alias")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero should clear")
	}
}

func TestFromSlice(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, src)
	src[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromSlice must copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length should panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !approxEq(got, want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Randn(4, 4, 1, r)
	if !approxEq(MatMul(a, Eye(4)), a, 1e-12) {
		t.Error("A·I != A")
	}
	if !approxEq(MatMul(Eye(4), a), a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := Randn(3, 4, 1, r), Randn(4, 2, 1, r), Randn(2, 5, 1, r)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return approxEq(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulAccum(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 0, 0, 1})
	b := FromSlice(2, 2, []float64{1, 2, 3, 4})
	out := b.Clone()
	MatMulAccum(out, a, b) // out = b + I·b = 2b
	if !approxEq(out, Scale(b, 2), 1e-12) {
		t.Errorf("MatMulAccum = %v", out.Data)
	}
}

// naiveMulAdd is the plain triple loop: out += a·b, one element at a time,
// adding the products to its starting value in ascending k and skipping zero
// entries of a. The product is rounded before the add, as in the kernels, so
// no target fuses it. Where an operation meets two NaNs, the one kept is
// spelled out rather than left to the compiler's choice of operands: b's in a
// product and the accumulator's in a sum, the x86 rule (the first operand's
// NaN) for the kernels' operand order. All the NaNs the tests make are quiet,
// so none needs quieting.
func naiveMulAdd(out, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := out.At(i, j)
			for k := 0; k < a.Cols; k++ {
				av, bv := a.At(i, k), b.At(k, j)
				if av == 0 || math.IsNaN(s) {
					continue
				}
				if math.IsNaN(bv) {
					s += bv
				} else {
					s += float64(av * bv)
				}
			}
			out.Set(i, j, s)
		}
	}
}

// TestMulAddMatchesNaive holds every path of the matrix kernel to
// naiveMulAdd bit for bit: MatMul and MatMulAccum (where fmath.AVX2 holds,
// the AVX2 row kernels), MatMulTAccum, which there reads a down its
// columns, against the naive loop on an explicit transpose, and mulAddGo,
// the portable kernel. It runs twice, the second time with fmath.AVX2
// cleared, as on a CPU without AVX2. Output widths run from 1 to 48, through
// every edge of the 16/8/4/2 column blocks and the scalar tail. The entries
// are what an assembly kernel can get wrong: zeros and negative zeros in a,
// b and the starting out (the skip, which must look at a alone, and the
// signed-zero sums), NaNs with distinct payloads in all three (the
// product's and the sum's operand order), and ±Inf and subnormals in out.
func TestMulAddMatchesNaive(t *testing.T) {
	onEveryPath(t, testMulAddMatchesNaive)
}

// onEveryPath runs f as subtest "cpu", with the kernels this CPU runs, and,
// where that means the AVX2 ones, again as "go" with fmath.AVX2 cleared.
func onEveryPath(t *testing.T, f func(*testing.T)) {
	t.Run("cpu", f)
	if !fmath.AVX2 {
		return
	}
	fmath.AVX2 = false
	defer func() { fmath.AVX2 = true }()
	t.Run("go", f)
}

func testMulAddMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	payload := uint64(0)
	nan := func(site uint64) float64 {
		payload++
		return math.Float64frombits(0x7ff8_0000_0000_0000 | site<<40 | payload)
	}
	entry := func(site uint64) float64 {
		switch p := r.Float64(); {
		case p < 0.03:
			return nan(site)
		case p < 0.2:
			return 0
		case p < 0.3:
			return math.Copysign(0, -1)
		case p < 0.33 && site == 3:
			return math.Inf(1 - 2*r.Intn(2))
		case p < 0.36 && site == 3:
			return math.Float64frombits(1 + uint64(r.Int63n(1<<52-1))) // subnormal
		default:
			return r.NormFloat64() * math.Exp2(float64(r.Intn(21)-10))
		}
	}
	fill := func(rows, cols int, site uint64) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = entry(site)
		}
		return m
	}
	// same compares bit for bit. Go code leaves whose NaN survives a NaN
	// meeting a NaN to the compiler's choice of operands, so mulAddGo, and
	// everything without the AVX2 kernels, need only give a NaN where
	// naiveMulAdd does.
	same := func(got, want *Matrix, payloads bool) bool {
		for i, w := range want.Data {
			g := got.Data[i]
			if math.Float64bits(g) != math.Float64bits(w) && (payloads || !math.IsNaN(g) || !math.IsNaN(w)) {
				return false
			}
		}
		return true
	}
	asm := fmath.AVX2
	for cols := 1; cols <= 48; cols++ {
		for trial := 0; trial < 25; trial++ {
			rows, inner := 1+r.Intn(6), 1+r.Intn(40)
			a, b := fill(rows, inner, 1), fill(inner, cols, 2)

			want := New(rows, cols)
			naiveMulAdd(want, a, b)
			if got := MatMul(a, b); !same(got, want, asm) {
				t.Fatalf("MatMul %dx%d·%dx%d differs from the naive loop", rows, inner, inner, cols)
			}

			start := fill(rows, cols, 3)
			want = start.Clone()
			naiveMulAdd(want, a, b)
			out := start.Clone()
			MatMulAccum(out, a, b)
			if !same(out, want, asm) {
				t.Fatalf("MatMulAccum %dx%d·%dx%d differs from the naive loop", rows, inner, inner, cols)
			}
			out = start.Clone()
			mulAddGo(out, a, b)
			if !same(out, want, false) {
				t.Fatalf("mulAddGo %dx%d·%dx%d differs from the naive loop", rows, inner, inner, cols)
			}

			// The strided entry point: out += atᵀ·b for at = aᵀ, read in place.
			at := Transpose(a)
			out = start.Clone()
			MatMulTAccum(out, at, b)
			if !same(out, want, asm) {
				t.Fatalf("MatMulTAccum (%dx%d)ᵀ·%dx%d differs from the naive loop on the transpose", inner, rows, inner, cols)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Randn(3, 5, 1, r)
		return approxEq(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransposeMatMulIdentity(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	r := rand.New(rand.NewSource(3))
	a, b := Randn(3, 4, 1, r), Randn(4, 2, 1, r)
	if !approxEq(Transpose(MatMul(a, b)), MatMul(Transpose(b), Transpose(a)), 1e-9) {
		t.Error("(AB)^T != B^T A^T")
	}
}

func TestAddSubScaleHadamard(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if !approxEq(Add(a, b), FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Error("Add wrong")
	}
	if !approxEq(Sub(b, a), FromSlice(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Error("Sub wrong")
	}
	if !approxEq(Scale(a, 2), FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Error("Scale wrong")
	}
	if !approxEq(Hadamard(a, b), FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Error("Hadamard wrong")
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !approxEq(c, Add(a, b), 0) {
		t.Error("AddInPlace wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := AddRowVector(a, v)
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !approxEq(got, want, 0) {
		t.Errorf("AddRowVector = %v", got.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{0, 0, 0, 1, 2, 3})
	s := SoftmaxRows(a)
	// Row 0: uniform.
	for j := 0; j < 3; j++ {
		if math.Abs(s.At(0, j)-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax wrong: %v", s.At(0, j))
		}
	}
	// Rows sum to one, values increasing with logits.
	sum := s.At(1, 0) + s.At(1, 1) + s.At(1, 2)
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("row sum = %v", sum)
	}
	if !(s.At(1, 0) < s.At(1, 1) && s.At(1, 1) < s.At(1, 2)) {
		t.Error("softmax not monotone in logits")
	}
}

func TestSoftmaxRowsStability(t *testing.T) {
	a := FromSlice(1, 2, []float64{1000, 1001})
	s := SoftmaxRows(a)
	if math.IsNaN(s.At(0, 0)) || math.IsNaN(s.At(0, 1)) {
		t.Fatal("softmax overflowed")
	}
	if math.Abs(s.At(0, 0)+s.At(0, 1)-1) > 1e-12 {
		t.Error("softmax of large logits does not sum to 1")
	}
}

func TestSoftmaxRowsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Randn(4, 6, 3, r)
		s := SoftmaxRows(a)
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for j := 0; j < s.Cols; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSumMeanMaxAbs(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, -5, 2, 2})
	if Sum(a) != 0 {
		t.Errorf("Sum = %v", Sum(a))
	}
	if Mean(a) != 0 {
		t.Errorf("Mean = %v", Mean(a))
	}
}

func TestShapePanics(t *testing.T) {
	a, b := New(2, 2), New(3, 3)
	cases := []func(){
		func() { New(0, 1) },
		func() { MatMul(a, b) },
		func() { Add(a, b) },
		func() { Sub(a, b) },
		func() { Hadamard(a, b) },
		func() { AddRowVector(a, New(2, 2)) },
		func() { MatMulAccum(New(2, 2), a, b) },
		func() { MatMulTAccum(New(2, 2), a, b) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(3, 3, 1, rand.New(rand.NewSource(42)))
	b := Randn(3, 3, 1, rand.New(rand.NewSource(42)))
	if !approxEq(a, b, 0) {
		t.Error("Randn with the same seed must be deterministic")
	}
}
