package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/assign"
	"repro/internal/geo"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/tvf"
	"repro/internal/wds"
	"repro/internal/workload"
)

// MethodNames are the five task assignment methods of Section V-B.2, in the
// paper's plot order.
var MethodNames = []string{"Greedy", "FTA", "DTA", "DTA+TP", "DATA-WA"}

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
		WDS:         wds.Options{Travel: travelModel},
		MaxNodes:    s.MaxNodes,
		Parallelism: s.Parallelism,
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

// trainDemandModel fits a DDGNN on the scenario's history hour, the demand
// model shared by DTA+TP and DATA-WA.
func trainDemandModel(sc *workload.Scenario, deltaT float64, s Scale) predict.Predictor {
	cfg := sc.SeriesConfig(SeriesK, deltaT)
	series := predict.BuildSeries(cfg, sc.History, 0)
	// Horizon 2: the stream needs demand one full interval ahead so
	// workers can travel there before it materializes.
	windows := series.WindowsAhead(s.Window, s.Stride, 2)
	train, _ := predict.SplitWindows(windows, 1.0) // all history trains
	model := newPredictor("DDGNN", sc.Grid.Cells(), s, sc.Config.Seed)
	if err := model.Fit(train); err != nil {
		panic(fmt.Sprintf("experiments: demand model training failed: %v", err))
	}
	return model
}

// materializeThreshold is the probability above which predicted demand
// becomes a virtual task in the experiment harness. The paper uses 0.85 on
// models trained on real Chengdu traces; on the noisier synthetic series
// our models are under-confident (maximum predicted probability ≈ 0.77), so
// the harness materializes at 0.5, where empirical precision is ≈ 0.4.
// EXPERIMENTS.md records this substitution; the library default exported as
// predict.DefaultThreshold remains the paper's 0.85.
const materializeThreshold = 0.5

// demandFor wraps a trained model for one stream run: a feed seeded with the
// history hour, so the series window is complete from t=0.
func demandFor(sc *workload.Scenario, model predict.Predictor, deltaT float64, s Scale) *stream.DemandFeed {
	cfg := sc.SeriesConfig(SeriesK, deltaT)
	f := predict.NewForecaster(model, cfg, s.Window, materializeThreshold, sc.Config.TaskValid)
	f.Horizon = 2
	return stream.NewDemandFeed(f, sc.History)
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
		stream.Config{Planner: collector, Step: s.Step, Travel: travelModel, Demand: demand},
	)
	model := tvf.NewModel(24, sc.Config.Seed)
	model.Train(collector.Samples, tvf.TrainConfig{Epochs: s.TVFEpochs * 2, Seed: sc.Config.Seed})
	return model
}

// runWithForecaster runs DTA+TP with an arbitrary trained demand model;
// used by the prediction figures to report panel (b).
func runWithForecaster(sc *workload.Scenario, model predict.Predictor, deltaT float64, s Scale) int {
	in := stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1}
	cfg := stream.Config{
		Planner: &assign.Search{Opts: assignOptions(s)},
		Demand:  demandFor(sc, model, deltaT, s),
		Step:    s.Step,
		Travel:  travelModel,
	}
	return stream.Run(in, cfg).Assigned
}

// RunMethods executes all five assignment methods on one scenario and
// returns their results in MethodNames order. The DDGNN demand model and
// the TVF are trained once and shared where applicable.
func RunMethods(sc *workload.Scenario, s Scale) []MethodResult {
	s = s.withDefaults()
	in := stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1}
	opts := assignOptions(s)

	demand := trainDemandModel(sc, DeltaTValues[0], s)
	valueFn := trainTVF(sc, demandFor(sc, demand, DeltaTValues[0], s), s)

	configs := []struct {
		name string
		cfg  stream.Config
	}{
		{"Greedy", stream.Config{Planner: &assign.Greedy{Opts: opts}}},
		{"FTA", stream.Config{Planner: &assign.Search{Opts: opts}, Fixed: true}},
		{"DTA", stream.Config{Planner: &assign.Search{Opts: opts}}},
		{"DTA+TP", stream.Config{
			Planner: &assign.Search{Opts: opts},
			Demand:  demandFor(sc, demand, DeltaTValues[0], s),
		}},
		{"DATA-WA", stream.Config{
			Planner: &assign.Search{Opts: opts, Model: valueFn},
			Demand:  demandFor(sc, demand, DeltaTValues[0], s),
		}},
	}
	out := make([]MethodResult, 0, len(configs))
	for _, c := range configs {
		c.cfg.Step = s.Step
		c.cfg.Travel = travelModel
		res := stream.Run(in, c.cfg)
		out = append(out, MethodResult{
			Method: c.name, Assigned: res.Assigned,
			AvgCPU: res.AvgPlanTime, Repositions: res.Repositions,
		})
	}
	return out
}

// sweepSpec describes one of the Fig. 7–11 parameter sweeps.
type sweepSpec struct {
	id, title, param string
	// values per dataset name; Table III values.
	values map[string][]float64
	apply  func(workload.Config, float64, Scale) workload.Config
	// format renders the swept value for the table.
	format func(float64) string
}

func runSweep(spec sweepSpec, s Scale) []*Table {
	s = s.withDefaults()
	var tables []*Table
	for _, base := range []workload.Config{workload.Yueche(), workload.DiDi()} {
		t := &Table{
			ID:     spec.id,
			Title:  fmt.Sprintf("%s (%s)", spec.title, base.Name),
			Header: []string{spec.param, "method", "assigned", "cpu_per_instant"},
		}
		for _, v := range s.sweep(spec.values[base.Name]) {
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
			id:    "fig7",
			title: "Task assignment: effect of |S|",
			param: "tasks",
			values: map[string][]float64{
				"Yueche": {7000, 8000, 9000, 10000, 11000},
				"DiDi":   {5000, 6000, 7000, 8000, 9000},
			},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.NumTasks = max(1, int(v*s.Factor))
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
		{
			id:    "fig8",
			title: "Task assignment: effect of |W|",
			param: "workers",
			values: map[string][]float64{
				"Yueche": {200, 300, 400, 500, 600},
				"DiDi":   {300, 400, 500, 600, 700},
			},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.NumWorkers = max(1, int(v*s.Factor))
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
		{
			id:    "fig9",
			title: "Task assignment: effect of reachable distance d",
			param: "reach_km",
			values: map[string][]float64{
				"Yueche": {0.05, 0.1, 0.5, 1.0, 5.0},
				"DiDi":   {0.05, 0.1, 0.5, 1.0, 5.0},
			},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.WorkerReach = v
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.2f", v) },
		},
		{
			id:    "fig10",
			title: "Task assignment: effect of available time off-on",
			param: "avail_h",
			values: map[string][]float64{
				"Yueche": {0.25, 0.5, 0.75, 1.0, 1.25},
				"DiDi":   {0.25, 0.5, 0.75, 1.0, 1.25},
			},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.WorkerAvail = v * 3600 * s.Factor
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.2f", v) },
		},
		{
			id:    "fig11",
			title: "Task assignment: effect of valid time e-p",
			param: "valid_s",
			values: map[string][]float64{
				"Yueche": {10, 20, 30, 40, 50},
				"DiDi":   {10, 20, 30, 40, 50},
			},
			apply: func(c workload.Config, v float64, s Scale) workload.Config {
				c.TaskValid = v
				return c
			},
			format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
		},
	}
	for _, spec := range sweeps {
		spec := spec
		register(Experiment{
			ID:    spec.id,
			Title: spec.title,
			Run:   func(s Scale) []*Table { return runSweep(spec, s) },
		})
	}
}
