package tensor

// The AVX2 row kernels of kernel_amd64.s. rowMulAddW computes
//
//	o[0:W] += Σ_{k<K} a[k·as] · b[k·n : k·n+W]
//
// skipping every a[k·as] == 0 (a NaN is not skipped), four columns to a YMM
// register (two, then one, in the narrow kernels): each product is rounded,
// then added, with no fused multiply-add, so each lane is the plain loop's
// element. Where a product meets two NaNs, b's payload is kept, and where a
// sum does, the accumulator's. K must be at least 1, and the CPU must have
// AVX2 (fmath.AVX2).

//go:noescape
func rowMulAdd16(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd8(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd4(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd2(o, a, b *float64, K, as, n int)

//go:noescape
func rowMulAdd1(o, a, b *float64, K, as, n int)

// mulAddRows computes out += A·b for the A whose element (i, k) is
// a[i·ai + k·as]. It runs every column through the row kernels, widest
// first, so the NaN a product keeps is the assembly's choice, not the
// compiler's.
func mulAddRows(out *Matrix, a []float64, ai, as int, b *Matrix) {
	n, K := b.Cols, b.Rows
	_ = b.Data[K*n-1] // the kernels read K rows of b
	for i := 0; i < out.Rows; i++ {
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
		if j+2 <= n {
			rowMulAdd2(&orow[j], &arow[0], &b.Data[j], K, as, n)
			j += 2
		}
		if j < n {
			rowMulAdd1(&orow[j], &arow[0], &b.Data[j], K, as, n)
		}
	}
}
