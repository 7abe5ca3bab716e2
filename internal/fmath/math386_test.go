//go:build 386

package fmath

import (
	"math"
	"testing"
)

// TestEqualsMathOn386 holds Exp, Log, Tanh and Pow to the math package's
// bits on 386, where math runs the pure-Go code these were copied from:
// that ties this package to the toolchain's code, and the model pins to
// their 386 constants.
func TestEqualsMathOn386(t *testing.T) {
	ys := []float64{-1.5, -0.5, 0.5, 2, 3, 0.3, -2.7, 1e-3}
	bad := 0
	for i, x := range corpus(1<<20, 4) {
		y := ys[i%len(ys)]
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Exp", Exp(x), math.Exp(x)},
			{"Log", Log(x), math.Log(x)},
			{"Tanh", Tanh(x), math.Tanh(x)},
			{"Pow", Pow(x, y), math.Pow(x, y)},
			{"Pow|x|", Pow(math.Abs(x), y), math.Pow(math.Abs(x), y)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) && bad < 10 {
				bad++
				t.Errorf("%s(%v) = %#x, math %#x", c.name, x, math.Float64bits(c.got), math.Float64bits(c.want))
			}
		}
	}
}
