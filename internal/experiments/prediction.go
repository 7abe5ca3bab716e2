package experiments

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/workload"
)

// DeltaTValues is the ΔT sweep of Table III (seconds); the underline in the
// paper marks 5 as the default.
var DeltaTValues = []float64{5, 6, 7, 8, 9}

// SeriesK is the per-vector interval count k (paper Fig. 3 uses k = 3).
const SeriesK = 3

// newPredictor builds one of the three evaluated models with a uniform
// budget, keyed by the names used in Section V-B.1.
func newPredictor(name string, cells int, s Scale, seed int64) predict.Predictor {
	train := predict.TrainConfig{Epochs: s.Epochs, LR: 0.02, WeightDecay: 1e-3, Seed: seed}
	switch name {
	case "LSTM":
		return predict.NewLSTMPredictor(SeriesK, 16, train)
	case "Graph-WaveNet":
		return predict.NewGraphWaveNet(cells, SeriesK, 16, 8, train)
	case "DDGNN":
		return predict.NewDDGNN(predict.DDGNNConfig{K: SeriesK, Hidden: 16, Embed: 8, Train: train})
	case "DDGNN-static":
		return predict.NewStaticAdjacencyDDGNN(predict.DDGNNConfig{K: SeriesK, Hidden: 16, Embed: 8, Train: train})
	default:
		panic("experiments: unknown predictor " + name)
	}
}

// PredictorNames are the three methods of Figs. 5 and 6, in plot order.
var PredictorNames = []string{"LSTM", "Graph-WaveNet", "DDGNN"}

// trainEval trains one model on the scenario's history series at the given
// ΔT and returns its evaluation plus the trained model for stream reuse.
func trainEval(name string, sc *workload.Scenario, deltaT float64, s Scale, seed int64) (predict.EvalResult, predict.Predictor) {
	cfg := sc.SeriesConfig(SeriesK, deltaT)
	series := predict.BuildSeries(cfg, sc.History, 0)
	windows := series.Windows(s.Window, 1)
	train, test := predict.SplitWindows(windows, 0.8)
	model := newPredictor(name, sc.Grid.Cells(), s, seed)
	return predict.Evaluate(model, train, test), model
}

// runPredictionFigure produces the four panels of Fig. 5 (Yueche) or
// Fig. 6 (DiDi): AP, #assigned with each predictor feeding DTA+TP, training
// time, and testing time, for every ΔT.
func runPredictionFigure(id string, base workload.Config, s Scale) []*Table {
	sc := workload.Generate(scaledConfig(base, s))

	quality := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Task demand prediction on %s (panels a–d)", base.Name),
		Header: []string{"deltaT", "model", "AP", "assigned", "train_time", "test_time"},
	}
	for _, deltaT := range s.sweep(DeltaTValues) {
		for _, name := range PredictorNames {
			res, model := trainEval(name, sc, deltaT, s, base.Seed)
			assigned := runWithForecaster(sc, model, deltaT, s)
			quality.Add(
				fmt.Sprintf("%.0f", deltaT), name, fmtF(res.AP),
				fmt.Sprintf("%d", assigned),
				fmtDuration(res.TrainTime), fmtDuration(res.TestTime),
			)
		}
	}
	return []*Table{quality}
}

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Performance of Task Demand Prediction: Effect of deltaT on Yueche",
		Run: func(s Scale) []*Table {
			return runPredictionFigure("fig5", workload.Yueche(), s)
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Performance of Task Demand Prediction: Effect of deltaT on DiDi",
		Run: func(s Scale) []*Table {
			return runPredictionFigure("fig6", workload.DiDi(), s)
		},
	})
	register(Experiment{
		ID:    "table2",
		Title: "Real datasets (synthetic stand-ins)",
		Run: func(s Scale) []*Table {
			t := &Table{
				ID:     "table2",
				Title:  "Dataset cardinalities (Table II)",
				Header: []string{"dataset", "workers", "tasks", "history_tasks", "window_s", "region_km"},
			}
			for _, cfg := range []workload.Config{workload.Yueche(), workload.DiDi()} {
				scn := workload.Generate(cfg.Scaled(s.Factor))
				t.Add(cfg.Name,
					fmt.Sprintf("%d", len(scn.Workers)),
					fmt.Sprintf("%d", len(scn.Tasks)),
					fmt.Sprintf("%d", len(scn.History)),
					fmt.Sprintf("%.0f", scn.T1-scn.T0),
					fmt.Sprintf("%.0fx%.0f", cfg.Region.Width(), cfg.Region.Height()),
				)
			}
			return []*Table{t}
		},
	})
}
