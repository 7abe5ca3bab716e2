// Demandforecast exercises the task demand prediction component alone:
// it discretizes a DiDi-like history into the task multivariate time series
// of Section III, trains the three predictors the paper compares, and
// prints their precision-recall quality — one column of Fig. 6(a).
//
// This example uses the internal prediction packages directly (it lives in
// the library's module); downstream users get the same functionality via
// datawa.Framework.TrainDemand.
//
// Run with: go run ./examples/demandforecast
package main

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/workload"
)

func main() {
	cfg := workload.DiDi().Scaled(0.15)
	cfg.HistoryDuration = 3600 // a full training hour
	sc := workload.Generate(cfg)

	const deltaT = 5
	series := predict.BuildSeries(sc.SeriesConfig(3, deltaT), sc.History, 0)
	windows := series.Windows(8, 1)
	train, test := predict.SplitWindows(windows, 0.8)
	fmt.Printf("DiDi-like history: %d tasks -> %d series vectors (deltaT=%ds, k=3)\n",
		len(sc.History), series.P(), deltaT)
	fmt.Printf("training on %d windows, testing on %d\n\n", len(train), len(test))

	tc := predict.TrainConfig{Epochs: 12, LR: 0.02, WeightDecay: 1e-3, Seed: 3}
	models := []predict.Predictor{
		predict.NewLSTMPredictor(3, 16, tc),
		predict.NewGraphWaveNet(sc.Grid.Cells(), 3, 16, 8, tc),
		predict.NewDDGNN(predict.DDGNNConfig{K: 3, Hidden: 16, Embed: 8, Train: tc}),
	}
	fmt.Printf("%-15s %8s %12s %12s\n", "model", "AP", "train", "test/window")
	for _, m := range models {
		res := predict.Evaluate(m, train, test)
		fmt.Printf("%-15s %8.3f %12v %12v\n", res.Model, res.AP,
			res.TrainTime.Round(1e6), res.TestTime)
	}

	// Show the learned dynamic dependency matrix for the latest window —
	// the paper's Eq. 6 in action.
	ddgnn := models[2].(*predict.DDGNN)
	adj := ddgnn.Adjacency(test[len(test)-1].Inputs)
	maxI, maxJ, maxV := 0, 0, 0.0
	for i := 0; i < adj.Rows; i++ {
		for j := 0; j < adj.Cols; j++ {
			if i != j && adj.At(i, j) > maxV {
				maxI, maxJ, maxV = i, j, adj.At(i, j)
			}
		}
	}
	fmt.Printf("\nstrongest learned cross-cell dependency: cell %d -> cell %d (weight %.3f)\n",
		maxI, maxJ, maxV)
}
