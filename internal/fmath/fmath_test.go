package fmath

import (
	"math"
	"math/rand"
	"testing"
)

// edges are the branch points of Exp, Tanh and Sigmoid and the bounds of
// the vector kernels' range, each with its neighbours one ulp either side,
// and both signs of each.
func edges() []float64 {
	base := []float64{
		0, expNearZero, 0.625, tanhMax, 700, expOverflow, -expUnderflow,
		0.5, 1, 2 * tanhMax, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
	}
	var out []float64
	for _, b := range base {
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return append(out, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001))
}

// corpus returns n inputs: normal draws at several scales, uniform ±800,
// magnitudes below 2**-28, random bit patterns (NaNs, infinities and
// subnormals among them), and every edge in every lane of a group of four,
// the other lanes normal draws.
func corpus(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	var xs []float64
	for _, e := range edges() {
		for lane := 0; lane < 4; lane++ {
			for j := 0; j < 4; j++ {
				if j == lane {
					xs = append(xs, e)
				} else {
					xs = append(xs, r.NormFloat64())
				}
			}
		}
	}
	for len(xs) < n {
		switch r.Intn(6) {
		case 0:
			xs = append(xs, r.NormFloat64())
		case 1:
			xs = append(xs, 30*r.NormFloat64())
		case 2:
			xs = append(xs, 1600*r.Float64()-800)
		case 3:
			xs = append(xs, (2*r.Float64()-1)*expNearZero)
		case 4:
			xs = append(xs, math.Float64frombits(r.Uint64()))
		default:
			xs = append(xs, 0.7*r.NormFloat64())
		}
	}
	return xs
}

// kernels are the slice kernels and the scalar function each must equal.
var kernels = []struct {
	name   string
	slice  func(dst, src []float64)
	scalar func(float64) float64
}{
	{"Exp", ExpSlice, Exp},
	{"Tanh", TanhSlice, Tanh},
	{"Sigmoid", SigmoidSlice, Sigmoid},
}

// TestSliceMatchesScalar holds every slice kernel to its scalar function,
// Float64bits equal, over more than a million inputs, in slices of lengths
// 1 to 11 (none of the longer ones a multiple of four) laid end to end, and
// in place.
func TestSliceMatchesScalar(t *testing.T) {
	xs := corpus(1<<20+37, 1)
	for _, k := range kernels {
		got := make([]float64, len(xs))
		for i, n := 0, 1; i < len(xs); i, n = i+n, n%11+1 {
			end := min(i+n, len(xs))
			k.slice(got[i:end], xs[i:end])
		}
		inPlace := append([]float64(nil), xs...)
		k.slice(inPlace, inPlace)
		bad := 0
		for i, x := range xs {
			want := math.Float64bits(k.scalar(x))
			for _, g := range []float64{got[i], inPlace[i]} {
				if math.Float64bits(g) != want && bad < 10 {
					bad++
					t.Errorf("%sSlice at %d: %v (%#x) → %#x, scalar %#x", k.name, i, x, math.Float64bits(x), math.Float64bits(g), want)
				}
			}
		}
	}
}

// TestKernelsTakeTheirRange checks that the vector kernels, where the CPU
// runs them, take every group in their range and stop at the first group
// they must leave to the scalar code, so TestSliceMatchesScalar compares
// vector lanes and not the fallback with itself.
func TestKernelsTakeTheirRange(t *testing.T) {
	if !AVX2 {
		t.Skip("no AVX2: the scalar functions do all the work")
	}
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 5 * r.NormFloat64()
	}
	xs[3] = 0 // Exp's and Sigmoid's 1 + x lanes and Tanh's x == 0 lane
	dst := make([]float64, len(xs))
	for _, c := range []struct {
		name   string
		kernel func(dst, src *float64, groups int) int
	}{{"exp", expAVX2}, {"tanh", tanhAVX2}, {"sigmoid", sigmoidAVX2}} {
		if got := c.kernel(&dst[0], &xs[0], len(xs)/4); got != len(xs) {
			t.Errorf("%sAVX2 wrote %d of %d in-range elements", c.name, got, len(xs))
		}
		stop := append([]float64(nil), xs...)
		stop[41] = math.NaN()
		if got := c.kernel(&dst[0], &stop[0], len(stop)/4); got != 40 {
			t.Errorf("%sAVX2 wrote %d elements before the NaN's group, want 40", c.name, got)
		}
	}
	big := append([]float64(nil), xs...)
	big[22] = -701
	if got := expAVX2(&dst[0], &big[0], len(big)/4); got != 20 {
		t.Errorf("expAVX2 wrote %d elements before the group holding -701, want 20", got)
	}
	if got := tanhAVX2(&dst[0], &big[0], len(big)/4); got != len(big) {
		t.Errorf("tanhAVX2 wrote %d of %d elements: it takes every non-NaN lane", got, len(big))
	}
}

// TestPowSpecialCases spot-checks Pow's own branches against the values the
// math package documents.
func TestPowSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, y, want float64 }{
		{2, 10, 1024},
		{4, 0.5, 2},
		{4, -0.5, 0.5},
		{-2, 3, -8},
		{0, -1, math.Inf(1)},
		{math.Inf(-1), -1, math.Copysign(0, -1)},
		{-1, math.Inf(1), 1},
		{0.5, math.Inf(1), 0},
	} {
		got := Pow(c.x, c.y)
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Pow(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if !math.IsNaN(Pow(-2, 0.5)) || !math.IsNaN(Log(-1)) || !math.IsInf(Log(0), -1) {
		t.Error("Pow(-2, 0.5) and Log(-1) must be NaN and Log(0) -Inf")
	}
}

// TestCloseToMath holds the functions to within 16 ulps of the math
// package's on the corpus's normal numbers up to 700 in magnitude, wherever
// this runs: a copy error in a constant or an operand would be far larger.
// (Outside that range amd64's assembly differs by more: its math.Log gives
// -709.09 for Log(5e-324), and its math.Exp overflows a little early.)
func TestCloseToMath(t *testing.T) {
	for _, x := range corpus(1<<16, 3) {
		if a := math.Abs(x); !(a >= 0x1p-1022 && a <= 700) {
			continue
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Exp", Exp(x), math.Exp(x)},
			{"Log", Log(math.Abs(x)), math.Log(math.Abs(x))},
			{"Tanh", Tanh(x), math.Tanh(x)},
			{"Pow", Pow(math.Abs(x), -1.5), math.Pow(math.Abs(x), -1.5)},
		} {
			if c.got == c.want || math.IsNaN(c.got) && math.IsNaN(c.want) {
				continue
			}
			if d := int64(math.Float64bits(c.got) - math.Float64bits(c.want)); d < -16 || d > 16 {
				t.Fatalf("%s(%v) = %v, math gives %v", c.name, x, c.got, c.want)
			}
		}
	}
}
