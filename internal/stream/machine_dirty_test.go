package stream

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

// dirtyRecorder is a DirtyPlanner stub that records the dirty set handed to
// each PlanDirty call while delegating planning to a real planner.
type dirtyRecorder struct {
	inner assign.Planner
	calls [][]int // sorted cell sets, one per PlanDirty invocation
}

func (r *dirtyRecorder) Name() string { return "dirtyRecorder" }

func (r *dirtyRecorder) Plan(w []*core.Worker, s []*core.Task, now float64) core.Plan {
	return r.inner.Plan(w, s, now)
}

func (r *dirtyRecorder) PlanDirty(w []*core.Worker, s []*core.Task, now float64, dirty spatial.CellSet) core.Plan {
	r.calls = append(r.calls, dirty.AppendCells(nil))
	return r.inner.Plan(w, s, now)
}

// dirtyGrid is 4×4 over [0,4)²: 1 km cells, row-major indices.
var dirtyGrid = geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 4, 4)

func dirtyMachine() (*Machine, *dirtyRecorder) {
	rec := &dirtyRecorder{inner: searchPlanner()}
	m := NewMachine(MachineConfig{Planner: rec, Travel: travel, DirtyGrid: dirtyGrid})
	return m, rec
}

func contains(cells []int, c int) bool {
	for _, x := range cells {
		if x == c {
			return true
		}
	}
	return false
}

// TestMachineDirtyMarksEvents walks the event kinds through a tracked
// machine and checks the cells each one dirties: task arrivals mark the
// task's cell, worker-side changes mark the whole reachability disk, and the
// set is cleared after each planner invocation but accumulates across
// planner-less instants.
func TestMachineDirtyMarksEvents(t *testing.T) {
	m, rec := dirtyMachine()

	// Task at (3.5, 3.5) → cell 15. No workers yet: the planner is not
	// invoked, the mark must survive until one is.
	m.AddTask(task(1, 3.5, 3.5, 0, 1000), 0)
	m.Step(0)
	if len(rec.calls) != 0 {
		t.Fatalf("planner invoked with no plannable worker: %v", rec.calls)
	}

	// Worker at (0.5, 0.5) reach 0.4: disk stays within cell 0.
	m.AddWorker(worker(1, 0.5, 0.5, 0.4, 0, 1000), 1)
	m.Step(1)
	if len(rec.calls) != 1 {
		t.Fatalf("planner calls = %d, want 1", len(rec.calls))
	}
	if got := rec.calls[0]; !contains(got, 15) || !contains(got, 0) {
		t.Fatalf("first dirty set %v must hold the task cell 15 and the worker cell 0", got)
	}

	// Nothing happened since: the next instant's dirty set is empty.
	m.Step(2)
	if got := rec.calls[1]; len(got) != 0 {
		t.Fatalf("quiet instant dirty set = %v, want empty", got)
	}

	// A heartbeat move marks both the old and the new disk.
	m.UpdateWorkerPos(1, geo.Point{X: 2.5, Y: 0.5})
	m.Step(3)
	if got := rec.calls[2]; !contains(got, 0) || !contains(got, 2) {
		t.Fatalf("heartbeat dirty set %v must hold old cell 0 and new cell 2", got)
	}

	// A cancel marks the task's cell.
	m.CancelTask(1)
	m.Step(4)
	if got := rec.calls[3]; !contains(got, 15) || contains(got, 0) {
		t.Fatalf("cancel dirty set = %v, want task cell 15 only", got)
	}

	// Worker departure marks its disk.
	m.RemoveWorker(1, 5)
	m.AddWorker(worker(2, 1.5, 3.5, 0.4, 5, 1000), 5)
	m.Step(5)
	if got := rec.calls[4]; !contains(got, 2) || !contains(got, 13) {
		t.Fatalf("dirty set %v must hold departed worker's cell 2 and new worker's cell 13", got)
	}
}

// TestMachineDirtyMarksCommitAndArrival pins the motion lifecycle: a commit
// dirties the task's cell at commit time, and the worker's arrival dirties
// its disk at the destination when it re-enters the planning pool.
func TestMachineDirtyMarksCommitAndArrival(t *testing.T) {
	m, rec := dirtyMachine()
	m.AddWorker(worker(1, 0.5, 0.5, 1, 0, 10000), 0)
	m.AddTask(task(1, 1.5, 0.5, 0, 5000), 0)
	m.Step(0) // plan + commit: travel 1 km at 0.01 km/s = 100 s
	if len(rec.calls) != 1 {
		t.Fatalf("planner calls = %d, want 1", len(rec.calls))
	}
	// The commit happened after the planner ran: its mark belongs to the
	// next invocation. The worker is moving until t=100, so the next
	// planner call only happens once it arrives and re-enters the pool.
	m.Step(50)
	m.Step(100)
	if len(rec.calls) != 2 {
		t.Fatalf("planner calls = %d, want 2 (moving worker plans only on arrival)", len(rec.calls))
	}
	got := rec.calls[1]
	if !contains(got, 1) {
		t.Fatalf("dirty set %v must hold the committed task's cell 1 (commit + arrival disk)", got)
	}
	if !contains(got, 0) {
		t.Fatalf("dirty set %v must hold cell 0: the arrival disk spans the cell boundary", got)
	}
}

// TestMachineDirtyMarksRetraction pins the arbitration hook: retracting a
// commit dirties the restored worker's whole reachability disk — the cells a
// stale cached component could wrongly shadow from it.
func TestMachineDirtyMarksRetraction(t *testing.T) {
	rec := &dirtyRecorder{inner: searchPlanner()}
	m := NewMachine(MachineConfig{
		Planner: rec, Travel: travel, DirtyGrid: dirtyGrid, TrackCommits: true,
	})
	m.AddWorker(worker(1, 1.5, 1.5, 1, 0, 10000), 0)
	m.AddTask(task(1, 1.5, 2.4, 0, 5000), 0)
	m.Step(0)
	commits := m.TakeCommits()
	if len(commits) != 1 {
		t.Fatalf("commits = %+v, want one", commits)
	}
	if !m.RetractCommit(1, 1, 0) {
		t.Fatal("retraction refused")
	}
	m.Step(1)
	if len(rec.calls) != 2 {
		t.Fatalf("planner calls = %d, want 2 (retracted worker is plannable again)", len(rec.calls))
	}
	// Worker restored to (1.5, 1.5) with reach 1: the disk spans cells
	// around cell 5 — all four neighbors included.
	got := rec.calls[1]
	for _, c := range []int{1, 4, 5, 6, 9} {
		if !contains(got, c) {
			t.Fatalf("post-retraction dirty set %v must cover the restored disk cell %d", got, c)
		}
	}
}

// TestMachineDirtyRequiresGridAndAdaptive pins the gates: no grid or FTA
// semantics must leave the dirty path (and its planner interface) unused.
func TestMachineDirtyRequiresGridAndAdaptive(t *testing.T) {
	rec := &dirtyRecorder{inner: searchPlanner()}
	m := NewMachine(MachineConfig{Planner: rec, Travel: travel}) // no grid
	m.AddWorker(worker(1, 0.5, 0.5, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.6, 0.5, 0, 500), 0)
	m.Step(0)
	if len(rec.calls) != 0 {
		t.Fatal("PlanDirty invoked without a DirtyGrid")
	}

	rec = &dirtyRecorder{inner: searchPlanner()}
	m = NewMachine(MachineConfig{Planner: rec, Travel: travel, DirtyGrid: dirtyGrid, Fixed: true})
	m.AddWorker(worker(1, 0.5, 0.5, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.6, 0.5, 0, 500), 0)
	m.Step(0)
	if len(rec.calls) != 0 {
		t.Fatal("PlanDirty invoked under FTA semantics")
	}
}

// TestMachineDirtyMarksFutureOnWorker pins the late-availability case: a
// worker admitted with a future On is dirty-marked at admission, but
// intervening planning instants consume that mark — its first *available*
// instant must re-dirty the reach disk, or a cached quiet component could
// shadow the tasks the worker just became able to take.
func TestMachineDirtyMarksFutureOnWorker(t *testing.T) {
	m, rec := dirtyMachine()
	// An always-available worker elsewhere keeps the planner running (and
	// the dirty set draining) every instant.
	m.AddWorker(worker(1, 0.5, 0.5, 0.3, 0, 1000), 0)
	// Worker 2 near cell 15 comes online at t=0 but is only available from
	// t=5 (future On).
	late := worker(2, 3.5, 3.5, 0.4, 5, 1000)
	m.AddWorker(late, 0)
	for i := 0; i < 5; i++ {
		m.Step(float64(i))
	}
	// By t=4 the admission mark has long been consumed.
	if got := rec.calls[4]; len(got) != 0 {
		t.Fatalf("pre-availability dirty set = %v, want empty", got)
	}
	m.Step(5)
	if got := rec.calls[5]; !contains(got, 15) {
		t.Fatalf("first-available dirty set = %v, must re-mark the late worker's cell 15", got)
	}
}
