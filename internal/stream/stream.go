// Package stream implements the Adaptive Algorithm of Section IV-C
// (Algorithm 3): an event-driven spatial-crowdsourcing simulator that feeds
// the continuous stream of arriving workers and tasks to a Planner, executes
// the head of each idle worker's planned sequence, and evicts expired tasks
// and departed workers. It is the test bed on which the six assignment
// methods of internal/method — the five of Section V-B.2 (Greedy, FTA, DTA,
// DTA+TP, DATA-WA) and the scenario-sampling SSP — are compared.
//
// The package has two layers. Machine is the commit/expiry state machine
// itself — active workers with their motion segments and plans (under FTA a
// task's place in a plan is its reservation), the open pool and its ghost
// replicas — driven by explicit arrival/departure events plus Step calls,
// and moving its workers by its planner's travel model
// (assign.Planner.Travel), so plans and their execution share one cost; the
// live dispatcher (internal/dispatch) runs one Machine per shard. Engine is
// the closed-trace replay driver built on Machine: it advances a scenario
// clock in fixed steps, batching the arrival events inside each step into
// one planning instant; the paper's "CPU time" metric (average cost of
// performing task assignment at each time instance) is reported as
// Result.AvgPlanTime.
//
// Engine state is single-goroutine; an Engine must not be shared across
// goroutines. Planners may fan their planning instant out across an internal
// worker pool (see assign.Options.Parallelism) — that concurrency is
// confined to the Plan call and deterministic, so the engine's semantics are
// unchanged.
//
// Predicted tasks reach a Machine one way: from its driver's DemandFeed,
// through SetVirtuals, before Step — the Engine's feed for its one machine,
// the dispatcher's for all its shards.
package stream

import (
	"time"

	"repro/internal/assign"
	"repro/internal/core"
)

// Config selects the assignment policy for a run.
type Config struct {
	// Planner computes assignments at each planning instant.
	Planner assign.Planner
	// Fixed selects FTA semantics: while a worker holds a plan it is never
	// adjusted, and no other worker plans its tasks. When false the plan of
	// every uncommitted worker is recomputed each step (DTA semantics).
	Fixed bool
	// Demand, when non-nil, injects virtual tasks (DTA+TP / DATA-WA / SSP).
	// A feed carries one run's history: give each run its own.
	Demand *DemandFeed
	// Step is the simulation step in seconds (default 1).
	Step float64
}

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 1
	}
	return c
}

// Input is one scenario: the full worker and task streams and the clock
// range to simulate.
type Input struct {
	Workers []*core.Worker
	Tasks   []*core.Task
	T0, T1  float64
}

// Result aggregates a run.
type Result struct {
	// Assigned is the paper's headline metric: the number of real tasks
	// assigned (every assignment here is also completed, since commitment
	// revalidates the spatio-temporal constraints).
	Assigned int
	// Expired counts real tasks that left the system unserved.
	Expired int
	// PlanCalls is the number of planning instants executed.
	PlanCalls int
	// PlanTime is the total time spent inside the planner.
	PlanTime time.Duration
	// AvgPlanTime is PlanTime/PlanCalls — the paper's CPU-time metric.
	AvgPlanTime time.Duration
	// Repositions counts moves toward virtual tasks.
	Repositions int
}

// Engine runs one scenario by replaying its presorted worker/task streams
// through a Machine. Create with NewEngine and call Run once.
type Engine struct {
	cfg Config
	in  Input
	m   *Machine

	nextWorker, nextTask int
	// changes receives the machine's change log after each Step; a replay
	// has no routing state or ledger to feed, so it is discarded.
	changes []Change
}

// NewEngine prepares a run; the input slices are not mutated (workers are
// copied so position updates stay internal).
func NewEngine(in Input, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	workers := append([]*core.Worker(nil), in.Workers...)
	core.SortWorkersByOn(workers)
	tasks := append([]*core.Task(nil), in.Tasks...)
	core.SortTasksByPub(tasks)
	return &Engine{
		cfg: cfg,
		in:  Input{Workers: workers, Tasks: tasks, T0: in.T0, T1: in.T1},
		m:   NewMachine(MachineConfig{Planner: cfg.Planner, Fixed: cfg.Fixed}),
	}
}

// Run executes the adaptive algorithm over the whole scenario clock and
// returns the aggregate result.
func (e *Engine) Run() Result {
	for t := e.in.T0; t < e.in.T1; t += e.cfg.Step {
		e.stepOnce(t)
	}
	st := e.m.Stats()
	res := Result{
		Assigned:    st.Assigned,
		Expired:     st.Expired,
		PlanCalls:   st.PlanCalls,
		PlanTime:    st.PlanTime,
		Repositions: st.Repositions,
	}
	if st.PlanCalls > 0 {
		res.AvgPlanTime = st.PlanTime / time.Duration(st.PlanCalls)
	}
	return res
}

// stepOnce batches the arrivals due at t into the machine (Algorithm 3
// lines 3–9), refreshes the forecast and advances one planning instant. The
// feed sees every task the machine does not already hold open — expired on
// arrival or not — which is what the dispatcher publishes too.
func (e *Engine) stepOnce(t float64) {
	for e.nextWorker < len(e.in.Workers) && e.in.Workers[e.nextWorker].On <= t {
		e.m.AddWorker(e.in.Workers[e.nextWorker], t)
		e.nextWorker++
	}
	for e.nextTask < len(e.in.Tasks) && e.in.Tasks[e.nextTask].Pub <= t {
		s := e.in.Tasks[e.nextTask]
		if _, open := e.m.OwnedTask(s.ID); !open {
			e.cfg.Demand.Publish(s)
		}
		e.m.AddTask(s, t)
		e.nextTask++
	}
	if v, ok := e.cfg.Demand.Refresh(t); ok {
		e.m.SetVirtuals(v)
	}
	e.m.Step(t)
	e.changes = e.m.TakeChanges(e.changes[:0])
}

// Run is a convenience wrapper: build an engine and run it.
func Run(in Input, cfg Config) Result {
	return NewEngine(in, cfg).Run()
}
