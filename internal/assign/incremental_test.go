package assign

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

// poolRecorder scripts plans by worker id and records the pool of every
// invocation, so tests can see exactly what the wrapper replans.
type poolRecorder struct {
	assign map[int]int // worker id → task id to assign (one-task sequences)
	pools  [][2][]int  // per call: sorted worker ids, sorted task ids
	byID   map[int]*core.Task
}

func (p *poolRecorder) Name() string { return "poolRecorder" }

func (p *poolRecorder) Plan(workers []*core.Worker, tasks []*core.Task, _ float64) core.Plan {
	var ws, ts []int
	p.byID = make(map[int]*core.Task)
	for _, w := range workers {
		ws = append(ws, w.ID)
	}
	for _, s := range tasks {
		ts = append(ts, s.ID)
		p.byID[s.ID] = s
	}
	sort.Ints(ws)
	sort.Ints(ts)
	p.pools = append(p.pools, [2][]int{ws, ts})
	var plan core.Plan
	for _, w := range workers {
		if tid, ok := p.assign[w.ID]; ok {
			if s, open := p.byID[tid]; open {
				plan = append(plan, core.Assignment{Worker: w, Seq: core.Sequence{s}})
			}
		}
	}
	return plan
}

var incGrid = geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 4, 4)

func incWorker(id int, x, y, reach float64) *core.Worker {
	return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: 0, Off: 1000}
}

func incTask(id int, x, y float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: 0, Exp: 1000, Cell: -1}
}

func dirtySet(cells ...int) spatial.CellSet {
	d := spatial.NewCellSet(incGrid.Cells())
	for _, c := range cells {
		d.Add(c)
	}
	return d
}

// TestIncrementalSkipsQuietComponents drives the wrapper through a cold
// plan, a quiet instant, and an invalidation, checking the wrapped planner's
// pools: the quiet empty component (a far worker and an unreachable task)
// is withheld until a dirty cell touches it.
func TestIncrementalSkipsQuietComponents(t *testing.T) {
	// Worker 1 (cell 0) serves task 10; worker 2 and task 20 idle in cell 15.
	rec := &poolRecorder{assign: map[int]int{1: 10}}
	inc := NewIncremental(rec, incGrid)
	workers := []*core.Worker{incWorker(1, 0.5, 0.5, 0.4), incWorker(2, 3.5, 3.5, 0.4)}
	tasks := []*core.Task{incTask(10, 0.6, 0.5), incTask(20, 3.2, 3.5)}

	// Cold: everything planned.
	inc.PlanDirty(workers, tasks, 0, dirtySet())
	if got := rec.pools[0]; len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("cold pool = %v, want full pool", got)
	}

	// Worker 1's region dirty (its commit), cell 15 quiet: only the active
	// component replans. Worker 2's empty component is spliced.
	inc.PlanDirty(workers, tasks, 1, dirtySet(0))
	if got := rec.pools[1]; len(got[0]) != 1 || got[0][0] != 1 || len(got[1]) != 1 || got[1][0] != 10 {
		t.Fatalf("quiet pool = %v, want worker 1 / task 10 only", got)
	}
	st := inc.Stats()
	if st.ComponentsReused == 0 || st.WorkersSkipped != 1 || st.TasksSkipped != 1 {
		t.Fatalf("stats = %+v, want one reused component with one worker and task skipped", st)
	}

	// Touch cell 15: the cached component is invalid, everything replans.
	inc.PlanDirty(workers, tasks, 2, dirtySet(15))
	if got := rec.pools[2]; len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("invalidated pool = %v, want full pool", got)
	}
}

// TestIncrementalNonEmptyComponentsReplan pins the core safety rule: a
// component that assigned anything is never reused, even with no dirty cell
// — its plan mutated machine state and must be recomputed.
func TestIncrementalNonEmptyComponentsReplan(t *testing.T) {
	rec := &poolRecorder{assign: map[int]int{1: 10}}
	inc := NewIncremental(rec, incGrid)
	workers := []*core.Worker{incWorker(1, 0.5, 0.5, 0.4)}
	tasks := []*core.Task{incTask(10, 0.6, 0.5), incTask(11, 0.7, 0.5)}
	inc.PlanDirty(workers, tasks, 0, dirtySet())
	// No dirty cells at all — yet the assigned component must replan.
	inc.PlanDirty(workers, tasks, 1, dirtySet())
	if len(rec.pools) != 2 || len(rec.pools[1][0]) != 1 {
		t.Fatalf("pools = %v, want the nonempty component replanned both times", rec.pools)
	}
	if st := inc.Stats(); st.ComponentsReused != 0 {
		t.Fatalf("stats = %+v, want zero reuse of a nonempty component", st)
	}
}

// TestIncrementalDirtyFractionFallback: when reuse would spare too little,
// the wrapper plans from scratch (one planner call with the full pool).
func TestIncrementalDirtyFractionFallback(t *testing.T) {
	rec := &poolRecorder{assign: map[int]int{}}
	inc := NewIncremental(rec, incGrid)
	// Ten active workers around cell 0, one quiet worker in cell 15: reuse
	// would spare 1 of 11, and 10/11 is past maxDirtyFraction.
	var workers []*core.Worker
	for i := 1; i <= 10; i++ {
		workers = append(workers, incWorker(i, 0.5, 0.5, 0.4))
	}
	workers = append(workers, incWorker(99, 3.5, 3.5, 0.4))
	inc.PlanDirty(workers, nil, 0, dirtySet())
	inc.PlanDirty(workers, nil, 1, dirtySet(0))
	if st := inc.Stats(); st.FullPlans != 2 || st.ComponentsReused != 0 {
		t.Fatalf("stats = %+v, want both instants planned fully (dirty fraction 10/11 > %v)", st, maxDirtyFraction)
	}
	if got := rec.pools[1]; len(got[0]) != 11 {
		t.Fatalf("fallback pool = %v, want all 11 workers", got)
	}
	// One active worker fewer and the quiet one is worth splicing: 9/10.
	inc.PlanDirty(workers[1:], nil, 2, dirtySet(0))
	if got := rec.pools[2]; len(got[0]) != 9 {
		t.Fatalf("pool = %v, want the 9 active workers only (9/10 is not past %v)", got, maxDirtyFraction)
	}
}

// TestWorkerCellsClampsOffRegion: the disk is taken around the clamped
// position, so off-map workers influence the boundary cells their clamped
// reachability can cover — matching task-cell routing, which clamps too.
func TestWorkerCellsClampsOffRegion(t *testing.T) {
	set := spatial.NewCellSet(incGrid.Cells())
	if own := AddWorkerCells(set, incGrid, geo.Point{X: 10, Y: 10}, 0.5); own != 15 || !set.Has(15) {
		t.Fatalf("cells = %v own = %d, want the clamped corner cell 15", set.AppendCells(nil), own)
	}
	// Degenerate reach still yields the worker's own cell.
	set.Reset()
	AddWorkerCells(set, incGrid, geo.Point{X: 0.5, Y: 0.5}, -1)
	if got := set.AppendCells(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("negative reach cells = %v, want [0]", got)
	}
}
