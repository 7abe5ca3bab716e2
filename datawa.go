// Package datawa is a pure-Go implementation of DATA-WA — "Demand-based
// Adaptive Task Assignment with Dynamic Worker Availability Windows"
// (ICDE 2025) — a spatial crowdsourcing framework that maximizes the number
// of assigned tasks by predicting future task demand with a Dynamic
// Dependency-based Graph Neural Network (DDGNN) and adaptively re-planning
// worker task sequences with a worker-dependency-separated search guided by
// a reinforcement-learned Task Value Function (TVF).
//
// The package is a façade over the building blocks in internal/: callers
// construct a Framework, optionally train its demand and value models, and
// then either plan a single assignment instant (Plan) or drive a full
// worker/task stream (Run) with any registered method: the five evaluated in
// the paper — Greedy, FTA, DTA, DTA+TP and DATA-WA — or the scenario-sampling
// SSP. NewDispatcher serves the same six live.
//
//	fw := datawa.New(datawa.Config{Region: region, GridRows: 6, GridCols: 6})
//	fw.TrainDemand(history)
//	fw.TrainValue(workers, tasks)
//	result, err := fw.Run(datawa.MethodDATAWA, workers, tasks, 0, 7200)
package datawa

import (
	"fmt"
	"strings"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/geo"
	"repro/internal/method"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/tvf"
	"repro/internal/wds"
	"repro/internal/workload"
)

// Re-exported domain types (Definitions 1–5 of the paper).
type (
	// Task is a spatial task s = (l, p, e).
	Task = core.Task
	// Worker is an online worker w = (l, d, on, off).
	Worker = core.Worker
	// Sequence is an ordered task sequence R(S_w).
	Sequence = core.Sequence
	// Assignment pairs a worker with a valid scheduled sequence.
	Assignment = core.Assignment
	// Plan is a spatial task assignment A.
	Plan = core.Plan
	// Point is a planar location in kilometers.
	Point = geo.Point
	// Rect is an axis-aligned region in kilometers.
	Rect = geo.Rect
	// Result aggregates one streaming run.
	Result = stream.Result
	// Scenario is a generated worker/task trace.
	Scenario = workload.Scenario
	// ScenarioConfig parameterizes the synthetic trace generators.
	ScenarioConfig = workload.Config
	// Dispatcher is the live dispatch service (see NewDispatcher).
	Dispatcher = dispatch.Dispatcher
	// DispatchMetrics is a dispatcher metrics snapshot.
	DispatchMetrics = dispatch.Metrics
	// DispatchEvent is one dispatcher ingest-queue entry. Dispatcher.Ingest
	// drops one that is not well formed (a non-finite number, a worker id or
	// reach ≤ 0, an empty window, a negative task id) and counts it in
	// DispatchMetrics.Unroutable.
	DispatchEvent = dispatch.Event
)

// WorkerOnlineEvent builds the ingest event admitting w at its On instant,
// for deterministic trace replay through Dispatcher.Ingest. For live
// operation use Dispatcher.WorkerOnline, which stamps the current clock.
// Both hold w to the same rule: a positive id and reach, a non-empty
// availability window, every number finite.
func WorkerOnlineEvent(w *Worker) DispatchEvent {
	return DispatchEvent{Time: w.On, Kind: dispatch.KindWorkerOnline, Worker: w}
}

// TaskSubmitEvent builds the ingest event publishing s at its Pub instant.
// Ingest holds s to a non-negative id, a non-empty validity window and
// finite numbers, as Dispatcher.SubmitTask does.
func TaskSubmitEvent(s *Task) DispatchEvent {
	return DispatchEvent{Time: s.Pub, Kind: dispatch.KindTaskSubmit, Task: s}
}

// Method selects an assignment policy: one of the five methods of Section
// V-B.2, or the scenario-sampling extension (MethodSSP).
type Method string

// The five methods evaluated in the paper, plus SSP.
const (
	MethodGreedy Method = method.Greedy
	MethodFTA    Method = method.FTA
	MethodDTA    Method = method.DTA
	MethodDTATP  Method = method.DTATP
	MethodDATAWA Method = method.DATAWA
	// MethodSSP is the scenario-sampling robust planner: DTA's adaptive
	// replanning against predict.DefaultSamples demand futures sampled from
	// the forecaster's predictive distribution, committing the assignment
	// with the best expected value across the sample set (see
	// docs/PLANNERS.md). Requires a trained demand model, like MethodDTATP.
	MethodSSP Method = method.SSP
)

// seriesK is the ΔT intervals per demand series vector, the paper's k = 3
// (Fig. 3): a run forecasts every seriesK·ΔT seconds.
const seriesK = 3

// NeedsDemand reports whether the method forecasts demand, so Run and
// NewDispatcher require TrainDemand first. False for an unregistered method.
func (m Method) NeedsDemand() bool { return method.Lookup(string(m)).NeedsDemand() }

// NeedsValue reports whether the method's planner reads the task value
// function, so Run and NewDispatcher require TrainValue first. False for an
// unregistered method.
func (m Method) NeedsValue() bool { return method.Lookup(string(m)).NeedsValue }

// Methods lists all supported methods: the paper's five in its order, then
// SSP.
func Methods() []Method {
	out := make([]Method, len(method.Rows))
	for i, r := range method.Rows {
		out[i] = Method(r.Name)
	}
	return out
}

// MethodList renders the registered method names for help and error texts.
func MethodList() string {
	names := make([]string, len(method.Rows))
	for i, r := range method.Rows {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}

// resolve looks m up in the registry (internal/method) and checks that the
// models its row declares are trained. An unknown-method error enumerates the
// registry.
func (f *Framework) resolve(m Method) (method.Row, error) {
	r := method.Lookup(string(m))
	switch {
	case r.Name == "":
		return r, fmt.Errorf("datawa: unknown method %q (methods: %s)", m, MethodList())
	case r.NeedsDemand() && f.demand == nil:
		return r, fmt.Errorf("datawa: %s requires TrainDemand first", m)
	case r.NeedsValue && f.value == nil:
		return r, fmt.Errorf("datawa: %s requires TrainValue first", m)
	}
	return r, nil
}

// Config parameterizes a Framework. The zero value plus a Region is usable;
// every other field has a sensible default.
type Config struct {
	// SpeedKmPerSec is the worker travel speed (default 0.01 = 10 m/s).
	SpeedKmPerSec float64

	// Region and GridRows/GridCols define the demand grid. Required for
	// demand prediction (MethodDTATP, MethodDATAWA, MethodSSP).
	Region             Rect
	GridRows, GridCols int

	// DeltaT is the elementary prediction interval ΔT in seconds
	// (default 5); Window the history vectors fed to the model (default 8).
	// A series vector holds the paper's k = 3 intervals, so a run forecasts
	// every 3·ΔT seconds from a demand feed that starts as TrainDemand's
	// history and keeps the last (Window+1)·3·ΔT seconds published.
	// Predicted demand materializes above the paper's probability threshold,
	// predict.DefaultThreshold (0.85).
	DeltaT float64
	Window int
	// VirtualValidTime is the validity e−p given to predicted tasks
	// (default 40 s, Table III's default task validity).
	VirtualValidTime float64

	// MaxSearchNodes bounds the exact DFSearch per RTC tree (not per planning
	// call: every tree of an instant's forest gets the full budget, then
	// completes greedily); 0 takes assign.Options' default.
	MaxSearchNodes int

	// Epochs and TVFEpochs bound model training (defaults 15, 30).
	Epochs, TVFEpochs int

	// Step is the streaming replan interval in seconds (default 1).
	Step float64

	// Seed makes training and planning deterministic (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SpeedKmPerSec <= 0 {
		c.SpeedKmPerSec = geo.DefaultSpeed
	}
	if c.GridRows <= 0 {
		c.GridRows = 6
	}
	if c.GridCols <= 0 {
		c.GridCols = 6
	}
	if c.DeltaT <= 0 {
		c.DeltaT = 5
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.VirtualValidTime <= 0 {
		c.VirtualValidTime = 40
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.TVFEpochs <= 0 {
		c.TVFEpochs = 30
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Framework is the DATA-WA system: travel model, demand predictor, task
// value function, and the planners built on them. Not safe for concurrent
// use.
type Framework struct {
	cfg    Config
	travel geo.TravelModel
	demand predict.Predictor
	// demandT0 anchors the prediction series at the earliest history task.
	demandT0 float64
	history  []*Task
	value    *tvf.Model
}

// New returns a Framework with the given configuration.
func New(cfg Config) *Framework {
	cfg = cfg.withDefaults()
	return &Framework{cfg: cfg, travel: geo.NewTravelModel(cfg.SpeedKmPerSec)}
}

func (f *Framework) grid() geo.Grid {
	return geo.NewGrid(f.cfg.Region, f.cfg.GridRows, f.cfg.GridCols)
}

func (f *Framework) assignOptions() assign.Options {
	return assign.Options{
		WDS:      wds.Options{Travel: f.travel},
		MaxNodes: f.cfg.MaxSearchNodes,
	}
}

func (f *Framework) seriesConfig() predict.SeriesConfig {
	return predict.SeriesConfig{Grid: f.grid(), K: seriesK, DeltaT: f.cfg.DeltaT, T0: f.demandT0}
}

// TrainDemand fits the DDGNN demand model on historical tasks (Section III).
// The history should cover at least Window·K·ΔT seconds before the stream
// the model will forecast. It returns an error when the region is unset or
// the history is too short.
func (f *Framework) TrainDemand(history []*Task) error {
	if f.cfg.Region.Width() <= 0 || f.cfg.Region.Height() <= 0 {
		return fmt.Errorf("datawa: TrainDemand requires a non-empty Config.Region")
	}
	if len(history) == 0 {
		return fmt.Errorf("datawa: TrainDemand requires historical tasks")
	}
	t0, tEnd := history[0].Pub, history[0].Pub
	for _, s := range history {
		if s.Pub < t0 {
			t0 = s.Pub
		}
		if s.Pub > tEnd {
			tEnd = s.Pub
		}
	}
	f.demandT0 = t0
	f.history = append([]*Task(nil), history...)
	series := predict.BuildSeries(f.seriesConfig(), history, tEnd)
	windows := series.Windows(f.cfg.Window, 1)
	if len(windows) == 0 {
		return fmt.Errorf("datawa: history spans %d vectors, need more than the %d-vector window",
			series.P(), f.cfg.Window)
	}
	model := predict.NewDDGNN(predict.DDGNNConfig{
		K: seriesK, Hidden: 16, Embed: 8,
		Train: predict.TrainConfig{Epochs: f.cfg.Epochs, LR: 0.02, WeightDecay: 1e-3, Seed: f.cfg.Seed},
	})
	model.Fit(windows)
	f.demand = model
	return nil
}

// TrainValue learns the Task Value Function (Section IV-B) from exact
// DFSearch runs over sampled planning instants of the given worker/task
// population. instants controls how many snapshots are searched (≤ 0 uses
// 8).
func (f *Framework) TrainValue(workers []*Worker, tasks []*Task, instants int) error {
	if len(workers) == 0 || len(tasks) == 0 {
		return fmt.Errorf("datawa: TrainValue requires workers and tasks")
	}
	if instants <= 0 {
		instants = 8
	}
	t0, t1 := tasks[0].Pub, tasks[0].Pub
	for _, s := range tasks {
		if s.Pub < t0 {
			t0 = s.Pub
		}
		if s.Exp > t1 {
			t1 = s.Exp
		}
	}
	opts := f.assignOptions()
	var samples []tvf.Sample
	for i := 0; i < instants; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(instants)
		var ws []*Worker
		for _, w := range workers {
			if w.Available(t) {
				ws = append(ws, w)
			}
		}
		var ts []*Task
		for _, s := range tasks {
			if s.Pub <= t && s.Exp > t {
				ts = append(ts, s)
			}
		}
		if len(ws) == 0 || len(ts) == 0 {
			continue
		}
		samples = append(samples, assign.CollectSamples(ws, ts, t, opts)...)
	}
	if len(samples) == 0 {
		return fmt.Errorf("datawa: no planning instants produced training data")
	}
	model := tvf.NewModel(16, f.cfg.Seed)
	model.Train(samples, tvf.TrainConfig{Epochs: f.cfg.TVFEpochs, Seed: f.cfg.Seed})
	f.value = model
	return nil
}

// HasDemandModel reports whether TrainDemand has succeeded.
func (f *Framework) HasDemandModel() bool { return f.demand != nil }

// HasValueModel reports whether TrainValue has succeeded.
func (f *Framework) HasValueModel() bool { return f.value != nil }

// Assign computes one spatial task assignment for the current workers and
// open tasks at time now — the Task Planning Assignment of Algorithm 4. It
// uses the TVF-guided search when a value model is trained and the exact
// DFSearch otherwise.
func (f *Framework) Assign(workers []*Worker, tasks []*Task, now float64) Plan {
	return method.Lookup(method.DATAWA).Ladder(f.env())[0].Plan(workers, tasks, now)
}

// env is what the method registry builds planners and demand feeds from. The
// forecast series exists once TrainDemand has run: it needs the region.
func (f *Framework) env() method.Env {
	e := method.Env{
		Opts: f.assignOptions(), Value: f.value, Demand: f.demand,
		Window: f.cfg.Window, Threshold: predict.DefaultThreshold, Validity: f.cfg.VirtualValidTime,
		History: f.history, Seed: f.cfg.Seed,
	}
	if f.demand != nil {
		e.Series = f.seriesConfig()
	}
	return e
}

// Run drives the adaptive streaming algorithm (Algorithm 3) over the full
// worker/task streams on the clock range [t0, t1) using the chosen method —
// any of the six Methods lists, SSP included. It fails until the models the method declares (Method.NeedsDemand,
// Method.NeedsValue) are trained.
func (f *Framework) Run(m Method, workers []*Worker, tasks []*Task, t0, t1 float64) (Result, error) {
	r, err := f.resolve(m)
	if err != nil {
		return Result{}, err
	}
	env := f.env()
	in := stream.Input{Workers: workers, Tasks: tasks, T0: t0, T1: t1}
	return stream.Run(in, stream.Config{
		Step: f.cfg.Step, Planner: r.Ladder(env)[0], Fixed: r.Fixed, Demand: r.Demand(env),
	}), nil
}

// DispatchConfig parameterizes the live dispatch service built by
// NewDispatcher. The zero value is usable: one shard, the framework's step
// as the epoch length.
type DispatchConfig struct {
	// Shards is the number of region shards (default 1), planned in parallel
	// in the epochs heavy enough to pay for it.
	// Multiple shards require Config.Region to be set, since shard routing
	// partitions the demand grid. A task near a shard boundary is replicated
	// into every shard within the largest admitted worker reach of it, with
	// deterministic commit arbitration.
	Shards int
	// Step is the epoch length in logical seconds (default Config.Step).
	Step float64
	// Now is the initial logical clock — the first epoch instant. To replay
	// a scenario trace equivalently to Run, set it to the trace's T0: the
	// dispatcher plans at Now, Now+Step, …, so a T0 offset from Now shifts
	// every planning instant and the outcomes diverge.
	Now float64
	// Admission bounds the ingest path (shed/defer by deadline when
	// saturated); the zero value admits everything. See
	// dispatch.AdmissionConfig.
	Admission AdmissionConfig
	// Governor enables SLA-aware planner degradation when Budget > 0: each
	// shard steps down a method-specific ladder (full planner → Greedy →
	// reachability-only Match) when its windowed p95 epoch planner work
	// exceeds the budget, stepping back up once the rung above is predicted
	// to fit it. Every shard holds its ladder either way; without a governor
	// it plans at the head for life.
	// See dispatch.GovernorConfig.
	Governor GovernorConfig
	// Obs enables the observability core: stage spans (GET /v1/trace.json),
	// the per-task lifecycle ledger (GET /v1/tasks/{id}/history), and the
	// flight recorder (GET /v1/flight). The epoch/stage wall-time histograms
	// on /metrics are always on. See dispatch.ObsConfig.
	Obs ObsConfig
}

// AdmissionConfig bounds the dispatcher's ingest path.
type AdmissionConfig = dispatch.AdmissionConfig

// GovernorConfig parameterizes the SLA epoch governor.
type GovernorConfig = dispatch.GovernorConfig

// ObsConfig parameterizes the dispatcher's observability core.
type ObsConfig = dispatch.ObsConfig

// NewDispatcher builds a live dispatch service running the chosen method:
// the online counterpart of Run, fed by concurrent events instead of a
// closed trace, for any of the six Methods. Each shard receives its own
// planner, and the method requires
// the same trained models Run does. Drive the returned dispatcher with its
// Serve loop for wall-clock operation, or Advance/Tick for deterministic
// replay.
func (f *Framework) NewDispatcher(m Method, dc DispatchConfig) (*Dispatcher, error) {
	if dc.Shards > 1 && (f.cfg.Region.Width() <= 0 || f.cfg.Region.Height() <= 0) {
		return nil, fmt.Errorf("datawa: %d shards require a non-empty Config.Region", dc.Shards)
	}
	r, err := f.resolve(m)
	if err != nil {
		return nil, err
	}
	env := f.env()
	cfg := dispatch.Config{
		Shards:    dc.Shards,
		Step:      dc.Step,
		Now:       dc.Now,
		Admission: dc.Admission,
		Governor:  dc.Governor,
		Obs:       dc.Obs,
		Fixed:     r.Fixed,
		Demand:    r.Demand(env),
		NewLadder: func(int) []assign.Planner { return r.Ladder(env) },
	}
	if cfg.Step <= 0 {
		cfg.Step = f.cfg.Step
	}
	// The grid feeds shard ownership; a framework without a region can only
	// run single-shard dispatch.
	if f.cfg.Region.Width() > 0 && f.cfg.Region.Height() > 0 {
		cfg.Grid = f.grid()
	}
	return dispatch.New(cfg), nil
}

// Archetype is one named entry of the scenario atlas: a documented demand
// regime with a Scale knob that multiplies worker/task density while keeping
// the regime's structure fixed. See docs/SCENARIOS.md for the atlas.
type Archetype = scenario.Archetype

// Archetypes returns every registered scenario-atlas archetype, sorted by
// name.
func Archetypes() []Archetype { return scenario.Registry() }

// ArchetypeByName returns the atlas archetype registered under name
// (e.g. "rush-hour", "multi-city").
func ArchetypeByName(name string) (Archetype, bool) { return scenario.Get(name) }

// YuecheScenario returns the synthetic stand-in for the paper's Yueche
// trace (Table II).
func YuecheScenario() ScenarioConfig { return workload.Yueche() }

// DiDiScenario returns the synthetic stand-in for the paper's DiDi trace.
func DiDiScenario() ScenarioConfig { return workload.DiDi() }

// GenerateScenario materializes a scenario deterministically.
func GenerateScenario(c ScenarioConfig) *Scenario { return workload.Generate(c) }
