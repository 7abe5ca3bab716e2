// Package fmath is the transcendental math under the model stack: Exp,
// Log, Tanh and Pow with one set of bits on every CPU, and slice kernels
// that run the hot element-wise operations four to an AVX2 register with
// those same bits.
//
// The standard library's math.Exp and math.Log are assembly on amd64, and
// Exp takes a fused multiply-add path on CPUs with FMA; on 386 both are Go.
// So a model trained through them had different bits on different CPUs.
// This package's scalar functions are the toolchain's pure-Go code
// (math.go), every product that feeds a sum rounded on its own, so they give
// what math gives on 386 wherever they run, arm64's fusing compiler
// included.
//
// ExpSlice, TanhSlice and SigmoidSlice apply Exp, Tanh and Sigmoid to a
// slice. On amd64 CPUs with AVX2 they run four lanes at a time
// (kernel_amd64.s) using only rounded multiplies, adds, subtracts and
// divides, in the scalar code's order, so every lane equals the scalar
// function bit for bit. A group of four that holds a NaN, or (Exp and
// Sigmoid) a lane whose magnitude exceeds 700, where the scalar code needs
// its overflow, underflow and subnormal branches, goes through the scalar
// function instead, as do the last len%4 elements. Elsewhere, and on amd64
// CPUs without AVX2, the scalar functions do all of it.
package fmath

// AVX2 reports whether the vector kernels run: true on amd64 CPUs with AVX2
// whose operating system saves the AVX state, found once by CPUID and
// XGETBV. internal/tensor's matrix kernels follow it too. Tests clear it to
// run the pure-Go path on an AVX2 host; nothing else writes it.
var AVX2 = hasAVX2()

// Sigmoid returns the logistic function 1/(1+Exp(-x)).
func Sigmoid(x float64) float64 { return 1 / (1 + Exp(-x)) }

// ExpSlice sets dst[i] = Exp(src[i]) for every i of src. dst must be at
// least as long as src, and the two either the same slice or disjoint.
func ExpSlice(dst, src []float64) { apply(dst, src, expAVX2, Exp) }

// TanhSlice sets dst[i] = Tanh(src[i]), as ExpSlice does Exp.
func TanhSlice(dst, src []float64) { apply(dst, src, tanhAVX2, Tanh) }

// SigmoidSlice sets dst[i] = Sigmoid(src[i]), as ExpSlice does Exp.
func SigmoidSlice(dst, src []float64) { apply(dst, src, sigmoidAVX2, Sigmoid) }

// apply runs kernel over src's groups of four into dst while AVX2 holds. The
// kernel stops at the first group it cannot take and returns how many
// elements it wrote; apply sends that group, and the short tail, through f.
func apply(dst, src []float64, kernel func(dst, src *float64, groups int) int, f func(float64) float64) {
	dst = dst[:len(src)]
	i := 0
	if AVX2 {
		for len(src)-i >= 4 {
			i += kernel(&dst[i], &src[i], (len(src)-i)/4)
			if len(src)-i >= 4 {
				for end := i + 4; i < end; i++ {
					dst[i] = f(src[i])
				}
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = f(src[i])
	}
}
