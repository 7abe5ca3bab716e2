package predict

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// DefaultThreshold is the occurrence-probability threshold above which a
// predicted task is materialized; the paper uses 0.85 in its experiments.
const DefaultThreshold = 0.85

// VirtualTasks converts a predicted probability matrix (M×K, from
// Predictor.Predict) into virtual tasks for the assignment component, per
// the end of Section III-C: if c_i[j] exceeds the threshold, a task is
// predicted in cell i during the j-th ΔT interval following intervalStart.
//
// The virtual task is placed at the cell center, published at the start of
// its interval, and expires validTime seconds later. IDs are allocated
// downward from idStart so they never collide with real (non-negative)
// task ids; callers pass a negative idStart.
func VirtualTasks(probs *tensor.Matrix, cfg SeriesConfig, intervalStart, threshold, validTime float64, idStart int) []*core.Task {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	n := 0
	for _, p := range probs.Data {
		if !(p < threshold) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*core.Task, 0, n)
	id := idStart
	for cell := 0; cell < probs.Rows; cell++ {
		for j := 0; j < probs.Cols; j++ {
			if probs.At(cell, j) < threshold {
				continue
			}
			pub := intervalStart + float64(j)*cfg.DeltaT
			out = append(out, &core.Task{
				ID:      id,
				Loc:     cfg.Grid.Center(cell),
				Pub:     pub,
				Exp:     pub + validTime,
				Virtual: true,
				Cell:    cell,
			})
			id--
		}
	}
	return out
}
