package datawa

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/predict"
	"repro/internal/tensor"
)

// busyCells predicts probability 1 for every cell with a task anywhere in the
// window and 0 elsewhere, so a forecast shows which tasks the model was fed.
type busyCells struct{}

func (busyCells) Name() string                 { return "busy-cells" }
func (busyCells) Fit(_ []predict.Window) error { return nil }
func (busyCells) Predict(in []*tensor.Matrix) *tensor.Matrix {
	out := tensor.New(in[0].Rows, in[0].Cols)
	for _, x := range in {
		for i, v := range x.Data {
			if v > 0 {
				for j := 0; j < out.Cols; j++ {
					out.Data[i/out.Cols*out.Cols+j] = 1
				}
			}
		}
	}
	return out
}

// TestPrefixedForecasterDropsStalePrefix: the training prefix completes early
// windows exactly as before, is never modified in the caller's slice, and —
// the uptime regression — costs nothing once it has aged out: the same
// published tasks cost the same allocations and give the same forecast 1 h
// and 100 h into the stream.
func TestPrefixedForecasterDropsStalePrefix(t *testing.T) {
	cfg := predict.SeriesConfig{Grid: geo.NewGrid(geo.Rect{MaxX: 2, MaxY: 2}, 2, 2), K: 3, DeltaT: 5, T0: -60}
	var history []*Task
	for i := 0; i < 500; i++ {
		history = append(history, &Task{ID: i, Loc: geo.Point{X: 1.5, Y: 1.5}, Pub: -60 + float64(i%60)}) // cell 3
	}
	kept := append([]*Task(nil), history...)
	newForecaster := func() *prefixedForecaster {
		return newPrefixedForecaster(predict.NewForecaster(busyCells{}, cfg, 4, 0.85, 40), history)
	}
	cells := func(vts []*Task) string {
		seen := map[int]bool{}
		for _, v := range vts {
			seen[v.Cell] = true
		}
		return fmt.Sprint(seen)
	}

	// At t=1 the 4-vector window is all training history: cell 3 is busy.
	p := newForecaster()
	if got := cells(p.Virtuals(nil, 1)); got != "map[3:true]" {
		t.Fatalf("forecast at t=1 from the training prefix alone covers %s, want cell 3", got)
	}
	for i := range history {
		if history[i] != kept[i] {
			t.Fatal("the caller's history slice was reordered")
		}
	}

	measure := func(now float64) (float64, string) {
		p := newForecaster()
		published := []*Task{{ID: 1000, Loc: geo.Point{X: 0.5, Y: 0.5}, Pub: now - 20}} // cell 0
		p.Virtuals(published, now)                                                      // sheds the prefix
		if len(p.prefix) != 0 {
			t.Fatalf("%d training tasks survive %v s past the window", len(p.prefix), now)
		}
		allocs := testing.AllocsPerRun(20, func() { p.Virtuals(published, now) })
		return allocs, cells(p.Virtuals(published, now))
	}
	nearAllocs, near := measure(3600)
	farAllocs, far := measure(360_000)
	if nearAllocs != farAllocs || near != far || near != "map[0:true]" {
		t.Fatalf("1 h in: %v allocations, cells %s; 100 h in: %v allocations, cells %s; want equal, cell 0 only",
			nearAllocs, near, farAllocs, far)
	}
}
