package tensor

import (
	"math"

	"repro/internal/fmath"
)

// The element-wise kernels. Each Vec function runs its loop over slices,
// four elements to a YMM register through elementwise_amd64.s where
// fmath.AVX2 holds, and as a Go loop without bounds checks elsewhere. Both
// compute each element as the scalar expression in the function's comment
// does, rounding every product before adding it (the Go loops convert each
// product with float64(), which forbids a fused multiply-add on targets
// whose compiler would emit one), so the two give the same bits. Where an
// operation meets two NaNs, the assembly keeps the first operand's payload
// as written; a Go loop leaves that to the compiler.
//
// Each takes its length from x (or g): dst and the other operands must be
// at least as long, and each either the same slice as an operand or
// disjoint from it.

// AddVec sets dst[i] = x[i] + y[i].
func AddVec(dst, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst, y = dst[:n], y[:n]
	if fmath.AVX2 {
		addAVX2(&dst[0], &x[0], &y[0], n)
		return
	}
	for i, v := range x {
		dst[i] = v + y[i]
	}
}

// subVec sets dst[i] = x[i] − y[i].
func subVec(dst, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst, y = dst[:n], y[:n]
	if fmath.AVX2 {
		subAVX2(&dst[0], &x[0], &y[0], n)
		return
	}
	for i, v := range x {
		dst[i] = v - y[i]
	}
}

// MulVec sets dst[i] = x[i]·y[i].
func MulVec(dst, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst, y = dst[:n], y[:n]
	if fmath.AVX2 {
		mulAVX2(&dst[0], &x[0], &y[0], n)
		return
	}
	for i, v := range x {
		dst[i] = v * y[i]
	}
}

// MulAccVec sets dst[i] += x[i]·y[i], the product rounded before the add.
func MulAccVec(dst, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst, y = dst[:n], y[:n]
	if fmath.AVX2 {
		mulAccAVX2(&dst[0], &x[0], &y[0], n)
		return
	}
	for i, v := range x {
		dst[i] += float64(v * y[i])
	}
}

// ScaleVec sets dst[i] = x[i]·k.
func ScaleVec(dst, x []float64, k float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if fmath.AVX2 {
		scaleAVX2(&dst[0], &x[0], k, n)
		return
	}
	for i, v := range x {
		dst[i] = v * k
	}
}

// AddConstVec sets dst[i] = x[i] + k.
func AddConstVec(dst, x []float64, k float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if fmath.AVX2 {
		addConstAVX2(&dst[0], &x[0], k, n)
		return
	}
	for i, v := range x {
		dst[i] = v + k
	}
}

// ScaleAccVec sets dst[i] += x[i]·k, the product rounded before the add.
func ScaleAccVec(dst, x []float64, k float64) {
	n := len(x)
	if n == 0 {
		return
	}
	dst = dst[:n]
	if fmath.AVX2 {
		scaleAccAVX2(&dst[0], &x[0], k, n)
		return
	}
	for i, v := range x {
		dst[i] += float64(v * k)
	}
}

// TanhGradVec sets dst[i] += (1 − t[i]·t[i])·g[i], tanh's backward step
// for the output t and its gradient g.
func TanhGradVec(dst, g, t []float64) {
	n := len(g)
	if n == 0 {
		return
	}
	dst, t = dst[:n], t[:n]
	if fmath.AVX2 {
		tanhGradAVX2(&dst[0], &g[0], &t[0], n)
		return
	}
	for i, v := range g {
		dst[i] += float64((1 - float64(t[i]*t[i])) * v)
	}
}

// SigmoidGradVec sets dst[i] += (1 − s[i])·(g[i]·s[i]), the sigmoid's
// backward step for the output s and its gradient g.
func SigmoidGradVec(dst, g, s []float64) {
	n := len(g)
	if n == 0 {
		return
	}
	dst, s = dst[:n], s[:n]
	if fmath.AVX2 {
		sigmoidGradAVX2(&dst[0], &g[0], &s[0], n)
		return
	}
	for i, v := range g {
		dst[i] += float64((1 - s[i]) * float64(v*s[i]))
	}
}

// AdamConsts are the constants of one Adam step, laid out as adamAVX2
// reads them.
type AdamConsts struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	// Correct1 and Correct2 are the bias corrections 1 − β1ᵗ and 1 − β2ᵗ.
	Correct1, Correct2 float64
	LR, Eps            float64
	// Decay is the learning rate times the weight decay, applied when
	// Decays is set.
	Decay  float64
	Decays bool
}

// AdamVec applies one Adam step to the parameters val with gradients g and
// moments m and v, element by element:
//
//	m[i] = (1−β1)·g[i] + m[i]·β1
//	v[i] = g[i]·((1−β2)·g[i]) + v[i]·β2
//	val[i] −= (m[i]/Correct1)·LR / (√(v[i]/Correct2) + Eps)
//	val[i] −= Decay·val[i]  (when Decays)
func AdamVec(val, m, v, g []float64, c *AdamConsts) {
	n := len(g)
	if n == 0 {
		return
	}
	val, m, v = val[:n], m[:n], v[:n]
	if fmath.AVX2 {
		adamAVX2(&val[0], &m[0], &v[0], &g[0], c, n)
		return
	}
	for i, gi := range g {
		mi := float64(c.OneMinusBeta1*gi) + float64(m[i]*c.Beta1)
		vi := float64(gi*float64(c.OneMinusBeta2*gi)) + float64(v[i]*c.Beta2)
		m[i], v[i] = mi, vi
		p := val[i] - mi/c.Correct1*c.LR/(math.Sqrt(vi/c.Correct2)+c.Eps)
		if c.Decays {
			p -= float64(c.Decay * p)
		}
		val[i] = p
	}
}
