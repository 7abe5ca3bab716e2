// Package tvf is a determinism fixture: its leaf name is on the pinned
// list, so the math functions whose bits depend on the CPU are findings and
// internal/fmath's are not. It is not on the critical list: a map range or
// a clock read here is no finding.
package tvf

import (
	"math"
	"time"

	"repro/internal/fmath"
)

func activations(x float64) float64 {
	a := math.Exp(x)       // want `math.Exp in pinned package tvf`
	f := math.Tanh         // want `math.Tanh in pinned package tvf`
	b := fmath.Exp(x)      // the same bits on every CPU: no finding
	c := math.Sqrt(x)      // correctly rounded everywhere: no finding
	d := math.Pow(x, -1.5) // want `math.Pow in pinned package tvf`
	_ = time.Now()
	return a + f(x) + b + c + d
}
