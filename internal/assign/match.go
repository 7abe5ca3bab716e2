package assign

import (
	"repro/internal/core"
	"repro/internal/geo"
)

// Match is the reachability-only matcher: the cheapest planner on the
// overload degradation ladder (dispatch.Governor). It scans workers in id
// order and hands each worker a singleton sequence — the nearest still
// unassigned real task satisfying the reachability conditions of Section
// IV-A.1 — with no sequence generation, no dependency graph, and no search.
// Virtual (predicted) tasks are ignored: under overload the planner's only
// job is real-task throughput, not positioning for forecast demand.
//
// Like every planner, Match is deterministic: worker order is id order, the
// per-worker choice is nearest-first with id tiebreak (inherited from
// wds.Scratch.Reachable), so the same pool always produces the same plan.
type Match struct {
	Opts Options

	scan workerScan
}

// Name implements Planner.
func (m *Match) Name() string { return "Match" }

// Travel implements Planner.
func (m *Match) Travel() geo.TravelModel { return m.Opts.WithDefaults().WDS.Travel }

// Work implements Planner: the reach queries' distance checks.
func (m *Match) Work() int { return m.scan.sc.Work() }

// Plan implements Planner.
func (m *Match) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	o := m.Opts.WithDefaults().WDS
	// Nearest-one query: the distance-sorted reachable set capped at 1 is
	// exactly the closest valid task.
	o.MaxReachable = 1
	return m.scan.plan(workers, tasks, now, o, true)
}
