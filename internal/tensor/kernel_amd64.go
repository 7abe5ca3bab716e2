package tensor

// The AVX2 row kernels of kernel_amd64.s. rowMulAddW computes
//
//	o[0:W] += Σ_{k<K} a[k·as] · b[k·n : k·n+W]
//
// skipping every a[k·as] == 0 (a NaN is not skipped), four columns to a YMM
// register: each product is rounded, then added, with no fused multiply-add,
// so each lane is the plain loop's element. Where a product meets two NaNs,
// b's payload is kept, and where a sum does, the accumulator's.
// rowMulAddMasked is the 4-wide kernel on the first one to three columns,
// the lanes mask selects; colMulAdd4 is a one-column product four rows to a
// register (see kernel_amd64.s). K must be at least 1, and the CPU must have
// AVX2 (fmath.AVX2).

//go:noescape
func rowMulAdd16(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd8(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd4(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAddMasked(o, a, b *float64, K, as, n int, mask *uint64)

//go:noescape
func colMulAdd4(o, a, b *float64, K, as, ai int)

// tailMasks[w-1] selects the first w lanes of a YMM register.
var tailMasks = [3][4]uint64{
	{1 << 63, 0, 0, 0},
	{1 << 63, 1 << 63, 0, 0},
	{1 << 63, 1 << 63, 1 << 63, 0},
}

// mulAddRows computes out += A·b for the A whose element (i, k) is
// a[i·ai + k·as]. It runs every column through the row kernels, widest
// first, so the NaN a product keeps is the assembly's choice, not the
// compiler's. A one-column product (the value network's output layer, and
// its weight gradient) goes four rows at a time, each row's products still
// added in ascending k.
func mulAddRows(out *Matrix, a []float64, ai, as int, b *Matrix) {
	n, K := b.Cols, b.Rows
	_ = b.Data[K*n-1] // the kernels read K rows of b
	i := 0
	if n == 1 {
		for ; i+4 <= out.Rows; i += 4 {
			_ = a[(i+3)*ai+(K-1)*as] // and K values of A's rows i to i+3
			colMulAdd4(&out.Data[i], &a[i*ai], &b.Data[0], K, as, ai)
		}
	}
	for ; i < out.Rows; i++ {
		orow, arow := out.Data[i*n:(i+1)*n], a[i*ai:]
		_ = arow[(K-1)*as] // and K values of A's row i, as apart
		j := 0
		for ; j+16 <= n; j += 16 {
			rowMulAdd16(&orow[j], &arow[0], &b.Data[j], K, as, n)
		}
		if j+8 <= n {
			rowMulAdd8(&orow[j], &arow[0], &b.Data[j], K, as, n)
			j += 8
		}
		if j+4 <= n {
			rowMulAdd4(&orow[j], &arow[0], &b.Data[j], K, as, n)
			j += 4
		}
		if j < n {
			rowMulAddMasked(&orow[j], &arow[0], &b.Data[j], K, as, n, &tailMasks[n-j-1][0])
		}
	}
}

// The AVX2 element-wise kernels of elementwise_amd64.s, each over n ≥ 1
// elements (see the Vec function of elementwise.go that calls it).

//go:noescape
func addAVX2(dst, x, y *float64, n int)

//go:noescape
func subAVX2(dst, x, y *float64, n int)

//go:noescape
func mulAVX2(dst, x, y *float64, n int)

//go:noescape
func mulAccAVX2(dst, x, y *float64, n int)

//go:noescape
func tanhGradAVX2(dst, x, y *float64, n int)

//go:noescape
func sigmoidGradAVX2(dst, x, y *float64, n int)

//go:noescape
func scaleAVX2(dst, x *float64, k float64, n int)

//go:noescape
func addConstAVX2(dst, x *float64, k float64, n int)

//go:noescape
func scaleAccAVX2(dst, x *float64, k float64, n int)

//go:noescape
func addRowsAVX2(dst, x, y *float64, rows, cols, dstep, xstep, ystep int)

//go:noescape
func adamAVX2(val, m, v, grad *float64, consts *AdamConsts, n int)
