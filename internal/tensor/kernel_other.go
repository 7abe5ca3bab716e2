//go:build !amd64

package tensor

func mulAdd(out, a, b *Matrix) { mulAddGo(out, a, b) }

// mulAddT computes out += aᵀ·b through an explicit transpose.
func mulAddT(out, a, b *Matrix) {
	t := Transpose(a)
	mulAddGo(out, t, b)
	Recycle(t)
}
