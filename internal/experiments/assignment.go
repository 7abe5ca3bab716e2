package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/assign"
	"repro/internal/geo"
	"repro/internal/method"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/tvf"
	"repro/internal/wds"
	"repro/internal/workload"
)

// scaledConfig scales the workload for the chosen fidelity but lets demand
// history shrink at most 8× slower than the run window (capped at the full
// hour): prediction quality is training-data-bound, and a 1:1 shrink would
// leave the graph models with a handful of windows.
func scaledConfig(base workload.Config, s Scale) workload.Config {
	c := base.Scaled(s.Factor)
	boosted := base.HistoryDuration * math.Min(1, s.Factor*8)
	if boosted > c.HistoryDuration {
		c.HistoryDuration = boosted
	}
	return c
}

// travelModel is shared by every method so comparisons are fair. 5 m/s is
// the effective urban speed including stops and signals; it reproduces the
// paper's scarcity regime (roughly a dozen served tasks per worker-hour)
// where sequencing quality separates the methods.
var travelModel = geo.NewTravelModel(0.005)

func assignOptions(s Scale) assign.Options {
	return assign.Options{
		WDS:      wds.Options{Travel: travelModel},
		MaxNodes: s.MaxNodes,
	}
}

// MethodResult is one line of Figs. 7–11: a method's assigned-task count
// and average per-instant CPU time on one scenario.
type MethodResult struct {
	Method   string
	Assigned int
	AvgCPU   time.Duration
	// Repositions counts moves toward predicted demand (prediction methods
	// only).
	Repositions int
}

// forecastHorizon is the harness's forecasting distance in vectors: the
// stream needs demand one full interval ahead so workers can travel there
// before it materializes. The library forecasts the next vector.
const forecastHorizon = 2

// trainDemandModel fits a DDGNN on the scenario's history hour, the demand
// model every forecasting method shares.
func trainDemandModel(sc *workload.Scenario, deltaT float64, s Scale) predict.Predictor {
	cfg := sc.SeriesConfig(SeriesK, deltaT)
	series := predict.BuildSeries(cfg, sc.History, 0)
	windows := series.WindowsAhead(s.Window, 1, forecastHorizon)
	train, _ := predict.SplitWindows(windows, 1.0) // all history trains
	model := newPredictor("DDGNN", sc.Grid.Cells(), s, sc.Config.Seed)
	model.Fit(train)
	return model
}

// materializeThreshold is the probability above which predicted demand
// becomes a virtual task in the experiment harness. The paper uses 0.85 on
// models trained on real Chengdu traces; on the noisier synthetic series
// our models are under-confident (maximum predicted probability ≈ 0.77), so
// the harness materializes at 0.5, where empirical precision is ≈ 0.4.
// docs/PLANNERS.md records this substitution; the library default exported
// as predict.DefaultThreshold remains the paper's 0.85.
const materializeThreshold = 0.5

// methodEnv is the harness's method environment over a trained demand model
// at series interval deltaT: the demand feed starts from the history hour, so
// the series window is complete from t=0.
func methodEnv(sc *workload.Scenario, demand predict.Predictor, deltaT float64, s Scale) method.Env {
	return method.Env{
		Opts: assignOptions(s), Demand: demand,
		Series: sc.SeriesConfig(SeriesK, deltaT), Window: s.Window, Threshold: materializeThreshold,
		Validity: sc.Config.TaskValid, Horizon: forecastHorizon, History: sc.History,
		Seed: sc.Config.Seed,
	}
}

// trainTVF gathers DFSearch training data (Algorithm 1) by streaming a
// prefix of the scenario with the exact search in collection mode, so the
// recorded (state, action, opt) triples come from the same distribution of
// planning states DFSearch_TVF will face — including virtual (predicted)
// tasks when a demand feed is supplied — then fits the task value function
// by the Q-learning regression of Eq. 12.
func trainTVF(sc *workload.Scenario, demand *stream.DemandFeed, s Scale) *tvf.Model {
	collector := &assign.Search{Opts: assignOptions(s), Collect: true}
	prefix := sc.T0 + (sc.T1-sc.T0)*0.5
	stream.Run(
		stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: prefix},
		stream.Config{Planner: collector, Step: s.Step, Demand: demand},
	)
	model := tvf.NewModel(24, sc.Config.Seed)
	model.Train(collector.Samples, tvf.TrainConfig{Epochs: s.TVFEpochs * 2, Seed: sc.Config.Seed})
	return model
}

// run streams the whole scenario under cfg at the harness's step; workers
// move at the speed of cfg's planner (travelModel, through assignOptions).
func run(sc *workload.Scenario, cfg stream.Config, s Scale) stream.Result {
	cfg.Step = s.Step
	return stream.Run(stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1}, cfg)
}

// runRow streams the whole scenario through one registry row's planner.
func runRow(sc *workload.Scenario, r method.Row, env method.Env, s Scale) stream.Result {
	return run(sc, stream.Config{Planner: r.Ladder(env)[0], Fixed: r.Fixed, Demand: r.Demand(env)}, s)
}

// runWithForecaster runs the DTA+TP row on a demand model trainEval fit,
// forecasting at the horizon it was fit at; used by the prediction figures to
// report panel (b).
func runWithForecaster(sc *workload.Scenario, model predict.Predictor, deltaT float64, s Scale) int {
	env := methodEnv(sc, model, deltaT, s)
	env.Horizon = predictionHorizon
	return runRow(sc, method.Lookup(method.DTATP), env, s).Assigned
}

// RunMethods executes every registered method on one scenario and returns
// their results in registry order (method.Rows: the paper's five, then SSP).
// The DDGNN demand model and the TVF are trained once and shared where
// applicable; the TVF learns from a DTA+TP-fed stream prefix.
func RunMethods(sc *workload.Scenario, s Scale) []MethodResult {
	env := methodEnv(sc, trainDemandModel(sc, DeltaTValues[0], s), DeltaTValues[0], s)
	env.Value = trainTVF(sc, method.Lookup(method.DTATP).Demand(env), s)
	out := make([]MethodResult, 0, len(method.Rows))
	for _, r := range method.Rows {
		res := runRow(sc, r, env, s)
		out = append(out, MethodResult{
			Method: r.Name, Assigned: res.Assigned,
			AvgCPU: res.AvgPlanTime, Repositions: res.Repositions,
		})
	}
	return out
}

// sweepSpec describes one of the Fig. 7–11 parameter sweeps.
type sweepSpec struct {
	id, title, param string
	// values are Table III's, for Yueche then DiDi.
	values [2][]float64
	apply  func(workload.Config, float64, Scale) workload.Config
	// format renders the swept value for the table.
	format func(float64) string
}

func runSweep(spec sweepSpec, s Scale) []*Table {
	var tables []*Table
	for i, base := range []workload.Config{workload.Yueche(), workload.DiDi()} {
		t := &Table{
			ID:     spec.id,
			Title:  fmt.Sprintf("%s (%s)", spec.title, base.Name),
			Header: []string{spec.param, "method", "assigned", "cpu_per_instant"},
		}
		for _, v := range s.sweep(spec.values[i]) {
			cfg := spec.apply(scaledConfig(base, s), v, s)
			sc := workload.Generate(cfg)
			for _, r := range RunMethods(sc, s) {
				t.Add(spec.format(v), r.Method, fmt.Sprintf("%d", r.Assigned), fmtDuration(r.AvgCPU))
			}
		}
		tables = append(tables, t)
	}
	return tables
}

func init() {
	sweeps := []sweepSpec{
		{
			id:     "fig7",
			title:  "Task assignment: effect of |S|",
			param:  "tasks",
			values: [2][]float64{{7000, 8000, 9000, 10000, 11000}, {5000, 6000, 7000, 8000, 9000}},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.NumTasks = max(1, int(v*s.Factor))
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
		{
			id:     "fig8",
			title:  "Task assignment: effect of |W|",
			param:  "workers",
			values: [2][]float64{{200, 300, 400, 500, 600}, {300, 400, 500, 600, 700}},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.NumWorkers = max(1, int(v*s.Factor))
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
		{
			id:     "fig9",
			title:  "Task assignment: effect of reachable distance d",
			param:  "reach_km",
			values: [2][]float64{{0.05, 0.1, 0.5, 1.0, 5.0}, {0.05, 0.1, 0.5, 1.0, 5.0}},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.WorkerReach = v
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.2f", v) },
		},
		{
			id:     "fig10",
			title:  "Task assignment: effect of available time off-on",
			param:  "avail_h",
			values: [2][]float64{{0.25, 0.5, 0.75, 1.0, 1.25}, {0.25, 0.5, 0.75, 1.0, 1.25}},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.WorkerAvail = v * 3600 * s.Factor
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.2f", v) },
		},
		{
			id:     "fig11",
			title:  "Task assignment: effect of valid time e-p",
			param:  "valid_s",
			values: [2][]float64{{10, 20, 30, 40, 50}, {10, 20, 30, 40, 50}},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.TaskValid = v
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
	}
	for _, spec := range sweeps {
		register(Experiment{
			ID:    spec.id,
			Title: spec.title,
			Run:   func(s Scale) []*Table { return runSweep(spec, s) },
		})
	}
}
