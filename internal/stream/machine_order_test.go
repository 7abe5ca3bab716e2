package stream

import (
	"slices"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
)

// orderRecorder records the worker ids of every planning instant, in the
// order the machine handed them over.
type orderRecorder struct {
	inner assign.Planner
	calls [][]int
}

func (r *orderRecorder) Name() string { return "orderRecorder" }

func (r *orderRecorder) Travel() geo.TravelModel { return r.inner.Travel() }

func (r *orderRecorder) Work() int { return r.inner.Work() }

func (r *orderRecorder) Plan(w []*core.Worker, s []*core.Task, now float64) core.Plan {
	ids := make([]int, len(w))
	for i := range w {
		ids[i] = w[i].ID
	}
	r.calls = append(r.calls, ids)
	return r.inner.Plan(w, s, now)
}

func activeIDs(m *Machine) []int {
	ids := make([]int, len(m.active))
	for i, ws := range m.active {
		ids[i] = ws.w.ID
	}
	return ids
}

// TestMachineActiveStaysIDOrdered: the active list is in worker-id order
// after every kind of change — arrivals in any order, eviction, an offline
// and a re-online of the same id within one epoch, a retracted commit — so
// the planner is handed id-sorted workers without a sort per instant.
func TestMachineActiveStaysIDOrdered(t *testing.T) {
	rec := &orderRecorder{inner: checked{searchPlanner()}}
	m := NewMachine(MachineConfig{Planner: rec})
	check := func(when string, want ...int) {
		t.Helper()
		if got := activeIDs(m); !slices.Equal(got, want) {
			t.Fatalf("%s: active = %v, want %v", when, got, want)
		}
	}

	// Arrival order 7, 3, 9, 1, 5; 5 is only available from t=50, 9 leaves at t=10.
	m.AddWorker(worker(7, 0, 0, 1, 0, 1000), 0)
	m.AddWorker(worker(3, 2, 0, 1, 0, 1000), 0)
	m.AddWorker(worker(9, 4, 0, 1, 0, 10), 0)
	m.AddWorker(worker(1, 6, 0, 1, 0, 1000), 0)
	m.AddWorker(worker(5, 8, 0, 1, 50, 1000), 0)
	if m.AddWorker(worker(3, 9, 9, 1, 0, 1000), 0) {
		t.Fatal("duplicate id admitted")
	}
	check("after out-of-order arrivals", 1, 3, 5, 7, 9)
	m.Step(0)
	if got := rec.calls[0]; !slices.Equal(got, []int{1, 3, 7, 9}) {
		t.Fatalf("planner saw %v, want the available workers 1 3 7 9 in id order", got)
	}

	// Eviction compacts in order.
	m.Step(10)
	check("after worker 9's window ended", 1, 3, 5, 7)

	// Offline and re-online of id 3 in one epoch, then a new low id.
	m.RemoveWorker(3, 11)
	check("after worker 3 went offline", 1, 5, 7)
	m.AddWorker(worker(3, 2, 0, 1, 11, 1000), 11)
	m.AddWorker(worker(0, 9, 9, 1, 11, 1000), 11)
	check("after worker 3 came back and worker 0 arrived", 0, 1, 3, 5, 7)
	m.Step(12)
	if got := rec.calls[len(rec.calls)-1]; !slices.Equal(got, []int{0, 1, 3, 7}) {
		t.Fatalf("planner saw %v, want 0 1 3 7", got)
	}

	// A commit and its retraction leave the order alone; the retracted
	// worker is planned again, in its place.
	m.AddTask(task(1, 2.1, 0, 12, 500), 12)
	m.Step(14)
	var commits []Change
	for _, c := range m.TakeChanges(nil) {
		if c.Kind == TaskAssigned {
			commits = append(commits, c)
		}
	}
	if len(commits) != 1 || commits[0].Worker != 3 || commits[0].Task != 1 {
		t.Fatalf("assignments = %+v, want worker 3 taking task 1", commits)
	}
	if !m.RetractCommit(3, 1, 14) {
		t.Fatal("retraction refused")
	}
	check("after a retracted commit", 0, 1, 3, 5, 7)
	m.Step(50)
	if got := rec.calls[len(rec.calls)-1]; !slices.Equal(got, []int{0, 1, 3, 5, 7}) {
		t.Fatalf("planner saw %v, want all five in id order", got)
	}
}
