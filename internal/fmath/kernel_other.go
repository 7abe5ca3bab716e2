//go:build !amd64

package fmath

func hasAVX2() bool { return false }

// The kernels' stand-ins: with AVX2 false, apply never calls them.

func expAVX2(dst, src *float64, groups int) int     { return 0 }
func tanhAVX2(dst, src *float64, groups int) int    { return 0 }
func sigmoidAVX2(dst, src *float64, groups int) int { return 0 }
