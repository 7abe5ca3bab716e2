//go:build !amd64

package tensor

// The assembly kernels' stand-ins: off amd64 fmath.AVX2 is false, so
// nothing calls them.

func noKernels() { panic("tensor: no assembly kernels off amd64") }

func mulAddRows(out *Matrix, a []float64, ai, as int, b *Matrix) { noKernels() }

func addAVX2(dst, x, y *float64, n int)                                   { noKernels() }
func subAVX2(dst, x, y *float64, n int)                                   { noKernels() }
func mulAVX2(dst, x, y *float64, n int)                                   { noKernels() }
func mulAccAVX2(dst, x, y *float64, n int)                                { noKernels() }
func tanhGradAVX2(dst, x, y *float64, n int)                              { noKernels() }
func sigmoidGradAVX2(dst, x, y *float64, n int)                           { noKernels() }
func scaleAVX2(dst, x *float64, k float64, n int)                         { noKernels() }
func addConstAVX2(dst, x *float64, k float64, n int)                      { noKernels() }
func scaleAccAVX2(dst, x *float64, k float64, n int)                      { noKernels() }
func addRowsAVX2(dst, x, y *float64, rows, cols, dstep, xstep, ystep int) { noKernels() }
func adamAVX2(val, m, v, grad *float64, consts *AdamConsts, n int)        { noKernels() }
