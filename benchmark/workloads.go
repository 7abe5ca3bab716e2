package main

import (
	"fmt"
	"math/rand"
	"sort"

	datawa "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/wire"
	"repro/internal/workload"
)

// spec is one benchmark workload: a generated trace, the method and
// dispatcher shape it is replayed through, and how often a run repeats its
// set-up. README.md records why each exists and what it is sized against.
type spec struct {
	name string
	// config returns the trace configuration at the given size. size is the
	// atlas density multiplier for archetype workloads and the
	// workload.Config.Scaled fraction for paper-yueche.
	config func(size float64) workload.Config
	// size is what the benchmark runs; smoke is the smallest trace with the
	// same shape, used by the warm-up of search-heavy workloads and by the
	// package tests.
	size, smoke float64
	// warmSmoke warms up on the smoke-size trace instead of the trace itself:
	// enough to fault in the planner's code and scratch where one full replay
	// would cost as much as the measurement.
	warmSmoke bool
	method    datawa.Method
	shards    int
	step      float64
	// churn adds heartbeat, cancel and offline traffic to the trace.
	churn bool
	// variants is how many perturbed copies of the trace one run replays; the
	// metrics are over all of them. Search work is chaotic in its input, so
	// a single trace would make every seed a different measurement.
	variants int
	// roundSeconds is what one round — every variant replayed once — takes on
	// the baseline host. A run does as many rounds as fit in -seconds at this
	// rate: the count is fixed by the command line, not by how fast this
	// particular run happens to go, because the per-epoch minimum over two
	// rounds and over three are different estimators.
	roundSeconds float64
	// setups is how many times a run repeats the whole set-up; setup_s is the
	// median. Training-heavy set-ups run once.
	setups int
	// reference checks the live counts against Framework.Run on the same
	// trace (one shard, so they must agree exactly).
	reference bool
	// operatorProbe adds the 20 Hz Snapshot reader to the traced replay.
	operatorProbe bool
}

func archetype(name string) func(float64) workload.Config {
	return func(size float64) workload.Config {
		a, ok := scenario.Get(name)
		if !ok {
			panic("benchmark: unknown archetype " + name)
		}
		return a.Scale(size)
	}
}

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{
		name: "spike-search", config: archetype("event-spike"), size: 1.5, smoke: 1, warmSmoke: true,
		method: datawa.MethodDTA, shards: 2, step: 2, variants: 5, roundSeconds: 5, setups: 3, operatorProbe: true,
	},
	{
		name: "churn-greedy", config: archetype("courier-grid"), size: 20, smoke: 1,
		method: datawa.MethodGreedy, shards: 2, step: 2, churn: true, variants: 2, roundSeconds: 1.5, setups: 3,
	},
	{
		name: "paper-yueche", config: func(size float64) workload.Config { return workload.Yueche().Scaled(size) },
		size: 1, smoke: 0.05,
		method: datawa.MethodDATAWA, shards: 1, step: 1, variants: 1, roundSeconds: 6.5, setups: 1, reference: true,
	},
	{
		name: "robust-ssp", config: archetype("rush-hour"), size: 2.5, smoke: 1, warmSmoke: true,
		method: datawa.MethodSSP, shards: 2, step: 2, variants: 2, roundSeconds: 5, setups: 3,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// trace is one generated input: the scenario, its wire-form event stream in
// replay order, and the lookups the output checks need.
type trace struct {
	sc     *workload.Scenario
	events []wire.Event
	t0, t1 float64
	// tasks and workers index the scenario records by id.
	tasks   map[int]*core.Task
	workers map[int]*core.Worker
}

// epochs is the number of planning instants a replay executes on [t0, t1).
func (tr *trace) epochs(step float64) int {
	n := 0
	for t := tr.t0; t < tr.t1; t += step {
		n++
	}
	return n
}

// Control-traffic shape of the churn workload.
const (
	heartbeatEvery  = 2.0   // logical seconds between a worker's position reports
	heartbeatJitter = 0.025 // km; reports scatter this far around the worker's station
	cancelShare     = 0.10  // of tasks withdrawn inside their validity window
	offlineShare    = 0.10  // of worker segments leaving early inside their window
)

// locationJitter is how far a perturbed trace moves every worker and task
// location, in km per axis: GPS-noise scale, far below any reach radius.
const locationJitter = 0.025

// generate builds one trace of the workload. Perturbation 0 is the
// archetype's own trace, byte for byte what workload.Generate returns; any
// other value moves every worker and task location by up to locationJitter
// per axis and draws its own control traffic. The archetype's regime —
// hotspots, peaks, cardinalities, arrival times — is the same in all of them:
// regenerating the trace from another archetype seed moves the hotspots and
// with them every metric by tens of percent, which would measure the draw,
// not the program. A jitter this small is still a different input: planning
// decisions diverge within a few epochs and the search work of a crowd epoch
// differs between perturbations by ±10%.
func (s spec) generate(size float64, perturbation int64) *trace {
	sc := workload.Generate(s.config(size))
	if perturbation != 0 {
		rng := rand.New(rand.NewSource(perturbation))
		move := func(p geo.Point) geo.Point {
			return sc.Config.Region.Clamp(geo.Point{
				X: p.X + (rng.Float64()*2-1)*locationJitter,
				Y: p.Y + (rng.Float64()*2-1)*locationJitter,
			})
		}
		for _, w := range sc.Workers {
			w.Loc = move(w.Loc)
		}
		for _, t := range sc.Tasks {
			t.Loc = move(t.Loc)
			t.Cell = sc.Grid.CellOf(t.Loc)
		}
	}
	tr := &trace{
		sc: sc, t0: sc.T0, t1: sc.T1,
		tasks:   make(map[int]*core.Task, len(sc.Tasks)),
		workers: make(map[int]*core.Worker, len(sc.Workers)),
	}
	for _, t := range sc.Tasks {
		tr.tasks[t.ID] = t
	}
	for _, w := range sc.Workers {
		tr.workers[w.ID] = w
	}
	for _, ev := range sc.Events() {
		// A break can resume a courier after the horizon; an arrival at or
		// past T1 never reaches a planning instant of [T0, T1).
		if ev.Time < sc.T1 {
			tr.events = append(tr.events, wireEvent(ev))
		}
	}
	if s.churn {
		tr.events = append(tr.events, controlTraffic(sc, perturbation)...)
		// Stable by time: arrivals keep the engine's admission order and stay
		// ahead of control events at the same instant, so a cancel or a
		// heartbeat never precedes the submit or online it refers to.
		sort.SliceStable(tr.events, func(i, j int) bool { return tr.events[i].Time < tr.events[j].Time })
	}
	return tr
}

// traces generates the run's inputs for a seed: the workload's variants, each
// a different perturbation. Seed 1's first variant is perturbation 0, the
// archetype's own trace; no two seeds share a perturbation.
func (s spec) traces(size float64, seed int64) []*trace {
	out := make([]*trace, s.variants)
	for v := range out {
		out[v] = s.generate(size, (seed-1)*int64(s.variants)+int64(v))
	}
	return out
}

// controlTraffic generates the client-side traffic a closed trace does not
// carry: position heartbeats from every on-duty worker, cancellations, and
// early departures. Every event references an id that is live in the trace at
// the event's instant and lies inside [T0, T1).
func controlTraffic(sc *workload.Scenario, seed int64) []wire.Event {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []wire.Event
	for _, w := range sc.Workers {
		off := w.Off
		if rng.Float64() < offlineShare {
			off = w.On + rng.Float64()*(w.Off-w.On)
			if off < sc.T1 {
				out = append(out, wire.Event{Time: off, Kind: wire.WorkerOffline, ID: int64(w.ID)})
			}
		}
		for t := w.On + heartbeatEvery; t < off && t < sc.T1; t += heartbeatEvery {
			out = append(out, wire.Event{
				Time: t, Kind: wire.Position, ID: int64(w.ID),
				X: w.Loc.X + (rng.Float64()*2-1)*heartbeatJitter,
				Y: w.Loc.Y + (rng.Float64()*2-1)*heartbeatJitter,
			})
		}
	}
	for _, t := range sc.Tasks {
		if rng.Float64() >= cancelShare {
			continue
		}
		at := t.Pub + rng.Float64()*(t.Exp-t.Pub)
		if at < sc.T1 {
			out = append(out, wire.Event{Time: at, Kind: wire.TaskCancel, ID: int64(t.ID)})
		}
	}
	return out
}

// wireEvent converts one scenario arrival to its wire form, as
// dispatch.LoadGen does for its stream transport.
func wireEvent(ev workload.Event) wire.Event {
	switch ev.Kind {
	case workload.WorkerOnline:
		w := ev.Worker
		return wire.Event{
			Time: ev.Time, Kind: wire.WorkerOnline, ID: int64(w.ID),
			X: w.Loc.X, Y: w.Loc.Y, Reach: w.Reach, On: w.On, Off: w.Off,
		}
	case workload.TaskSubmit:
		t := ev.Task
		return wire.Event{
			Time: ev.Time, Kind: wire.TaskSubmit, ID: int64(t.ID),
			X: t.Loc.X, Y: t.Loc.Y, Pub: t.Pub, Exp: t.Exp,
		}
	}
	panic(fmt.Sprintf("benchmark: unknown trace event kind %v", ev.Kind))
}

// maxSearchNodes is the per-tree exact-search budget, the value the BENCH
// atlas cells run with.
const maxSearchNodes = 4000

// framework builds the workload's Framework over a trace and trains the
// models its method needs, reporting how long each training took.
func (s spec) framework(tr *trace) (fw *datawa.Framework, trainDemand, trainValue float64, err error) {
	c := tr.sc.Config
	fw = datawa.New(datawa.Config{
		Region: c.Region, GridRows: c.GridRows, GridCols: c.GridCols,
		Step: s.step, Seed: c.Seed, MaxSearchNodes: maxSearchNodes,
	})
	if s.method == datawa.MethodDATAWA || s.method == datawa.MethodSSP {
		trainDemand, err = timed(func() error { return fw.TrainDemand(tr.sc.History) })
		if err != nil {
			return nil, 0, 0, err
		}
	}
	if s.method == datawa.MethodDATAWA {
		trainValue, err = timed(func() error { return fw.TrainValue(tr.sc.Workers, tr.sc.Tasks, 6) })
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return fw, trainDemand, trainValue, nil
}

// dispatcher builds a fresh live dispatcher for one replay.
func (s spec) dispatcher(fw *datawa.Framework, tr *trace, obs datawa.ObsConfig) (*datawa.Dispatcher, error) {
	return fw.NewDispatcher(s.method, datawa.DispatchConfig{
		Shards: s.shards, Step: s.step, Now: tr.t0, Obs: obs,
	})
}
