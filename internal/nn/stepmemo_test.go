package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestStepMemoMatchesColdLastStep: a trunk of three layers of mixed taps and
// dilations (receptive fields 2, 4 and 12 steps deep) through one memo gives
// top and lifted equal in every bit to LastStep without one. The windows
// slide by one and by two, repeat, change length, move back a step (no shift
// aligns them; the memo only misses) and rewrite a vector in one bit.
func TestStepMemoMatchesColdLastStep(t *testing.T) {
	p := NewParams(11)
	lift := NewLinear(p, 3, 4)
	layers := []*GatedCausalConv{
		NewGatedCausalConv(p, 4, 4, 3, 1),
		NewGatedCausalConv(p, 4, 4, 2, 2),
		NewGatedCausalConv(p, 4, 4, 3, 4),
	}
	r := rand.New(rand.NewSource(12))
	series := make([]*tensor.Matrix, 60)
	for i := range series {
		series[i] = tensor.Randn(5, 3, 1, r)
	}
	flipped := append([]*tensor.Matrix(nil), series[20:36]...)
	flipped[9] = flipped[9].Clone()
	flipped[9].Data[7] = math.Float64frombits(math.Float64bits(flipped[9].Data[7]) ^ 1)
	windows := [][]*tensor.Matrix{
		series[0:16], series[1:17], series[2:18], series[4:20], series[4:20],
		series[5:17], series[6:18], series[6:22], series[5:21],
		series[19:35], flipped, series[21:37], series[40:43], series[41:44],
	}
	var memo StepMemo
	for w, in := range windows {
		top, lifted := LastStep(lift, in, &memo, layers...)
		wantTop, wantLifted := LastStep(lift, in, nil, layers...)
		for _, pair := range [][2]*Node{{top, wantTop}, {lifted, wantLifted}} {
			for i, v := range pair[1].Val.Data {
				if math.Float64bits(pair[0].Val.Data[i]) != math.Float64bits(v) {
					t.Fatalf("window %d: entry %d is %v through the memo, %v without", w, i, pair[0].Val.Data[i], v)
				}
			}
		}
	}
	// The last window slid by one: only the new input is lifted.
	if got := memo.Evaluated(); len(got) != len(layers)+1 || len(got[0]) != 1 || got[0][0] != 2 {
		t.Fatalf("the last call evaluated %v by level, want lift 2 alone at level 0", got)
	}
}
