package stream

import (
	"slices"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wds"
)

// machineWith returns an empty machine running the exact search planner.
func machineWith(fixed bool) *Machine {
	return NewMachine(MachineConfig{Planner: checked{searchPlanner()}, Fixed: fixed})
}

func TestMachineWorkerDepartsMidMotionCommitted(t *testing.T) {
	// The worker commits to a task and its window ends mid-travel: it must
	// stay active until arrival (validity guaranteed completion before off
	// at commit time), and the assignment stands.
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.AddTask(task(1, 0.5, 0, 0, 90), 0)
	m.Step(0) // commit: travel 50 s, arrive 50 < min(90, 100)
	if st := m.Stats(); st.Assigned != 1 {
		t.Fatalf("assigned = %d, want 1", st.Assigned)
	}
	// Shrink the window below the current clock while the worker is moving.
	m.RemoveWorker(1, 10)
	m.Step(20)
	if wp, ok := m.PlanOf(1); !ok || wp.Committed != 1 || !wp.Moving {
		t.Fatalf("committed worker evicted mid-motion: %+v ok=%v", wp, ok)
	}
	// On arrival the motion completes; the worker departs at the next step.
	m.Step(50)
	m.Step(51)
	if _, ok := m.PlanOf(1); ok {
		t.Fatal("worker should depart after completing its committed task")
	}
	if st := m.Stats(); st.Assigned != 1 || st.Expired != 0 {
		t.Fatalf("stats after departure: %+v", st)
	}
}

func TestMachineWorkerDepartsMidReposition(t *testing.T) {
	// A worker repositioning toward predicted demand is interruptible: when
	// its window ends mid-motion it leaves immediately, and the virtual
	// target is never counted.
	v := task(-1, 0.8, 0, 0, 500)
	v.Virtual = true
	m := machineWith(false)
	m.SetVirtuals([]*core.Task{v})
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.Step(0)
	if st := m.Stats(); st.Repositions != 1 {
		t.Fatalf("repositions = %d, want 1", st.Repositions)
	}
	m.RemoveWorker(1, 10)
	m.Step(10)
	if _, ok := m.PlanOf(1); ok {
		t.Fatal("repositioning worker must depart at off, not at arrival")
	}
	if st := m.Stats(); st.Assigned != 0 {
		t.Fatalf("assigned = %d, want 0 (virtual only)", st.Assigned)
	}
}

func TestMachineTaskExpiringAtCommitInstant(t *testing.T) {
	// Arrival exactly at the expiration instant: Definition 4 requires
	// reaching the task strictly before e, so the commit must be refused
	// and the task expires.
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	// 0.5 km at 10 m/s = 50 s travel: planning at t=0 arrives exactly at 50.
	m.AddTask(task(1, 0.5, 0, 0, 50), 0)
	m.Step(0)
	if st := m.Stats(); st.Assigned != 0 {
		t.Fatalf("assigned = %d, want 0 (arrival == expiration)", st.Assigned)
	}
	m.Step(50)
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
}

func TestMachineTaskExpiringAtStepInstant(t *testing.T) {
	// A task whose expiration coincides with the step instant is evicted
	// before planning: Exp <= t means gone.
	m := machineWith(false)
	m.AddWorker(worker(1, 0.4, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 10), 0)
	m.Step(10) // first planning instant is exactly the expiration
	st := m.Stats()
	if st.Assigned != 0 || st.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 0/1", st.Assigned, st.Expired)
	}
}

func TestMachineZeroDurationAvailabilityWindow(t *testing.T) {
	// on == off: the window [on, off) is empty, so the worker must never be
	// admitted — the degenerate case of a dynamic window collapsing.
	m := machineWith(false)
	if m.AddWorker(worker(1, 0, 0, 1, 5, 5), 5) {
		t.Fatal("zero-duration window admitted")
	}
	if m.Workers() != 0 {
		t.Fatalf("active workers = %d, want 0", m.Workers())
	}
	// Same through the engine: the worker is skipped at its own on instant.
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 5, 5)},
		Tasks:   []*core.Task{task(1, 0.1, 0, 0, 400)},
		T0:      0, T1: 500,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 0 || res.Expired != 1 {
		t.Fatalf("engine assigned/expired = %d/%d, want 0/1", res.Assigned, res.Expired)
	}
}

// TestMachineFutureOnWorkerPlansWhenAvailable: a worker admitted ahead of its
// window (On in the future) sits out every instant before On and is planned
// at the first one inside it.
func TestMachineFutureOnWorkerPlansWhenAvailable(t *testing.T) {
	m := machineWith(false)
	if !m.AddWorker(worker(1, 0, 0, 1, 5, 1000), 0) {
		t.Fatal("worker with a future On not admitted")
	}
	m.AddTask(task(1, 0.1, 0, 0, 400), 0)
	for now := 0.0; now < 5; now++ {
		m.Step(now)
	}
	if st := m.Stats(); st.Assigned != 0 || st.PlanCalls != 0 {
		t.Fatalf("before On: assigned/plan calls = %d/%d, want 0/0", st.Assigned, st.PlanCalls)
	}
	m.Step(5)
	if st := m.Stats(); st.Assigned != 1 || st.PlanCalls != 1 {
		t.Fatalf("at On: assigned/plan calls = %d/%d, want 1/1", st.Assigned, st.PlanCalls)
	}
}

func TestMachineExpiredOnArrivalCounts(t *testing.T) {
	// A task published already past its expiration (late delivery of a
	// stale event) counts as expired exactly once.
	m := machineWith(false)
	if m.AddTask(task(1, 0.5, 0, 0, 10), 20) {
		t.Fatal("stale task admitted to the open pool")
	}
	m.Step(20)
	m.Step(21)
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want exactly 1", st.Expired)
	}
}

func TestMachineUpdatePosIgnoredWhileMoving(t *testing.T) {
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 400), 0)
	m.Step(0)
	// A position report during motion acknowledges the worker but must not
	// teleport it: the committed task still completes on schedule.
	if !m.UpdateWorkerPos(1, geo.Point{X: 3, Y: 3}) {
		t.Fatal("known moving worker reported as unknown")
	}
	// A worker executing a committed task is not replanned until it arrives.
	m.Step(25)
	if st := m.Stats(); st.PlanCalls != 1 {
		t.Fatalf("plan calls = %d mid-motion, want 1 (the commit instant's)", st.PlanCalls)
	}
	m.Step(50) // arrival on the original schedule
	if wp, _ := m.PlanOf(1); wp.Moving {
		t.Fatal("motion should have completed at the original arrival time")
	}
	if st := m.Stats(); st.PlanCalls != 2 {
		t.Fatalf("plan calls = %d on arrival, want 2 (the worker re-enters the pool)", st.PlanCalls)
	}
	if !m.UpdateWorkerPos(1, geo.Point{X: 0.2, Y: 0}) {
		t.Fatal("position update refused for an idle worker")
	}
}

func TestMachineDuplicateAdmissionsRejected(t *testing.T) {
	m := machineWith(false)
	if !m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0) {
		t.Fatal("first admission refused")
	}
	if m.AddWorker(worker(1, 2, 2, 1, 0, 9000), 0) {
		t.Fatal("duplicate live worker id admitted")
	}
	if !m.AddTask(task(1, 0.5, 0, 0, 400), 0) {
		t.Fatal("first task refused")
	}
	if m.AddTask(task(1, 0.9, 0, 0, 400), 0) {
		t.Fatal("duplicate open task id admitted")
	}
	if st := m.Stats(); st.Expired != 0 {
		t.Fatalf("duplicate submit counted as expired: %+v", st)
	}
}

func TestMachineRemovalTracking(t *testing.T) {
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.AddTask(task(1, 0.5, 0, 0, 400), 0)
	m.AddTask(task(2, 5, 5, 0, 30), 0) // out of reach: expires at 30
	m.Step(0)                          // commits task 1
	want := []Change{{Kind: TaskAssigned, Task: 1, Worker: 1, Arrive: 50}}
	if log := m.TakeChanges(nil); !slices.Equal(log, want) {
		t.Fatalf("change log = %+v, want %+v", log, want)
	}
	// An offline for the idle-again worker departs immediately.
	m.Step(50)
	m.RemoveWorker(1, 60)
	want = []Change{{Kind: TaskExpired, Task: 2, Worker: -1}}
	if log := m.TakeChanges(nil); !slices.Equal(log, want) {
		t.Fatalf("change log = %+v, want %+v", log, want)
	}
	if m.HasWorker(1) {
		t.Fatal("removed idle worker still active")
	}
	// The same id can come back before the next Step.
	if !m.AddWorker(worker(1, 0, 0, 1, 60, 500), 60) {
		t.Fatal("re-admission after immediate removal refused")
	}
}

// TestMachineMovesAtPlannerSpeed: the machine moves its workers by the
// travel model of the planner it runs, so a commitment's arrival is the
// planner's travel time — not the default speed's — at two speeds.
func TestMachineMovesAtPlannerSpeed(t *testing.T) {
	const now = 10
	for _, tc := range []struct{ speed, arrive float64 }{{0.005, now + 100}, {0.01, now + 50}} {
		g := &assign.Greedy{Opts: assign.Options{WDS: wds.Options{Travel: geo.NewTravelModel(tc.speed)}}}
		m := NewMachine(MachineConfig{Planner: checked{g}})
		m.AddWorker(worker(1, 0, 0, 1, 0, 1000), now)
		m.AddTask(task(1, 0.5, 0, 0, 1000), now)
		m.Step(now)
		want := []Change{{Kind: TaskAssigned, Task: 1, Worker: 1, Arrive: tc.arrive}}
		if log := m.TakeChanges(nil); !slices.Equal(log, want) {
			t.Fatalf("speed %v km/s: change log = %+v, want %+v", tc.speed, log, want)
		}
	}
}

// TestRunLeavesChangeLogEmpty: the replay engine has nothing to feed from
// the change log and drains it after every Step, so a run leaves no entry
// behind however many tasks it assigned and expired.
func TestRunLeavesChangeLogEmpty(t *testing.T) {
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 500), worker(2, 3, 3, 1, 20, 40)},
		Tasks:   []*core.Task{task(1, 0.5, 0, 0, 400), task(2, 9, 9, 0, 30), task(3, 0.2, 0, 100, 400)},
		T0:      0, T1: 600,
	}
	e := NewEngine(in, Config{Planner: checked{searchPlanner()}, Step: 10})
	res := e.Run()
	if res.Assigned != 2 || res.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 2/1", res.Assigned, res.Expired)
	}
	if len(e.m.changes) != 0 {
		t.Fatalf("machine log holds %+v after the run", e.m.changes)
	}
}
