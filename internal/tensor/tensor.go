// Package tensor provides the dense matrix kernel underlying the neural
// networks in this repository. It is deliberately small: row-major float64
// matrices with the handful of operations the prediction models need.
// Everything is deterministic given a seeded *rand.Rand.
//
// The matrix products (MatMul, MatMulAccum, MatMulTAccum) run on amd64 CPUs
// with AVX2 through assembly row kernels, four columns to a YMM register
// (kernel_amd64.s), and everywhere else through a blocked pure-Go kernel
// (mulAddGo); fmath.AVX2, one CPUID probe, picks. Both give the plain triple
// loop's result bit for bit, so a model's bits do not depend on the CPU.
// SoftmaxRows takes its exponentials from fmath, whose bits do not either.
package tensor

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/fmath"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// recycled holds matrices handed to Recycle, by the bit length of their
// capacity. A model evaluation builds the same few shapes again and again, so
// New usually finds one that fits in the class of the size it needs.
var recycled [65]sync.Pool

// New returns a zero matrix of the given shape.
// It panics on non-positive dimensions: shapes are static program structure.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if m, _ := recycled[bits.Len(uint(n))].Get().(*Matrix); m != nil && cap(m.Data) >= n {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		clear(m.Data)
		return m
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
}

// Recycle hands m and its storage back for New to reuse. The caller must
// hold the only reference to m and must not touch it afterwards.
func Recycle(m *Matrix) { recycled[bits.Len(uint(cap(m.Data)))].Put(m) }

// FromSlice wraps data (length rows*cols, row-major) in a matrix, copying it.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// Randn fills a new rows×cols matrix with N(0, std²) samples from r.
func Randn(rows, cols int, std float64, r *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * std
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return FromSlice(m.Rows, m.Cols, m.Data)
}

// Zero sets every element of m to zero, in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Matrix) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

func mustSameShape(op string, a, b *Matrix) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	mulAdd(out, a, b)
	return out
}

// MatMulAccum computes out += a·b in place; out must be a.Rows × b.Cols.
func MatMulAccum(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulAccum shape mismatch")
	}
	mulAdd(out, a, b)
}

// MatMulTAccum computes out += aᵀ·b in place; out must be a.Cols × b.Cols.
// Its bits are MatMulAccum(out, Transpose(a), b)'s, and the AVX2 kernels read
// a down its columns where it lies, with no transpose.
func MatMulTAccum(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: MatMulTAccum shape mismatch")
	}
	mulAddT(out, a, b)
}

// mulAdd computes out += a·b: through the AVX2 row kernels where fmath.AVX2
// holds, else through mulAddGo.
func mulAdd(out, a, b *Matrix) {
	if fmath.AVX2 {
		mulAddRows(out, a.Data, a.Cols, 1, b)
		return
	}
	mulAddGo(out, a, b)
}

// mulAddT computes out += aᵀ·b. The row kernels read a down its columns
// where it lies; mulAddGo gets an explicit transpose.
func mulAddT(out, a, b *Matrix) {
	if fmath.AVX2 {
		mulAddRows(out, a.Data, 1, a.Cols, b)
		return
	}
	t := Transpose(a)
	mulAddGo(out, t, b)
	Recycle(t)
}

// mulAddGo computes out += a·b, the portable matrix kernel: the only one
// off amd64 CPUs with AVX2, and the reference the row kernels are tested
// against. It walks each output row in blocks of 8 columns, then 4, then
// one, holding a block's sums in registers across the whole k loop instead
// of loading and storing out once per k. Every element still adds its
// products to its starting value one at a time in ascending k, skipping
// a[i][k] == 0, so the result is bit for bit the plain triple loop's. Each
// product is written float64(av * bv): the Go spec forbids fusing an
// explicitly converted product into a multiply-add, so the bits are the same
// on targets whose compiler would emit FMA (arm64).
func mulAddGo(out, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			o := orow[j : j+8 : j+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				bv := b.Data[k*n+j : k*n+j+8 : k*n+j+8]
				s0 += float64(av * bv[0])
				s1 += float64(av * bv[1])
				s2 += float64(av * bv[2])
				s3 += float64(av * bv[3])
				s4 += float64(av * bv[4])
				s5 += float64(av * bv[5])
				s6 += float64(av * bv[6])
				s7 += float64(av * bv[7])
			}
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			o := orow[j : j+4 : j+4]
			s0, s1, s2, s3 := o[0], o[1], o[2], o[3]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				bv := b.Data[k*n+j : k*n+j+4 : k*n+j+4]
				s0 += float64(av * bv[0])
				s1 += float64(av * bv[1])
				s2 += float64(av * bv[2])
				s3 += float64(av * bv[3])
			}
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			s := orow[j]
			for k, av := range arow {
				if av != 0 {
					s += float64(av * b.Data[k*n+j])
				}
			}
			orow[j] = s
		}
	}
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	mustSameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	mustSameShape("add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a − b.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape("sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Hadamard returns the element-wise product a ⊙ b.
func Hadamard(a, b *Matrix) *Matrix {
	mustSameShape("hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns k·a.
func Scale(a *Matrix, k float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = k * a.Data[i]
	}
	return out
}

// AddRowVector returns a + 1·vᵀ, broadcasting the 1×Cols row vector v over
// every row of a (bias addition).
func AddRowVector(a, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector wants 1x%d, got %dx%d", a.Cols, v.Rows, v.Cols))
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + v.Data[j]
		}
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of a, numerically stabilized.
func SoftmaxRows(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*a.Cols : (i+1)*a.Cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			orow[j] = v - maxv
		}
		fmath.ExpSlice(orow, orow)
		sum := 0.0
		for _, e := range orow {
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// Sum returns the sum of all elements of a.
func Sum(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements of a.
func Mean(a *Matrix) float64 { return Sum(a) / float64(len(a.Data)) }
