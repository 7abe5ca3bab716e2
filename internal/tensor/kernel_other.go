//go:build !amd64

package tensor

// mulAddRows is the row kernels' stand-in: off amd64 fmath.AVX2 is false,
// so mulAdd and mulAddT never call it.
func mulAddRows(out *Matrix, a []float64, ai, as int, b *Matrix) {
	panic("tensor: no row kernels off amd64")
}
