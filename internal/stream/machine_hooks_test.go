package stream

import (
	"math"
	"slices"
	"testing"
)

// TestMachineGhostLifecycle: a ghost plans and commits like an owned task,
// but its expiry is silent — no Expired count, no change-log entry.
func TestMachineGhostLifecycle(t *testing.T) {
	// Expiring ghost: silent.
	m := machineWith(false)
	if !m.AddGhost(task(1, 0.1, 0, 0, 10), 0) {
		t.Fatal("fresh ghost rejected")
	}
	if m.AddGhost(task(1, 0.2, 0, 0, 10), 0) {
		t.Fatal("duplicate ghost id admitted")
	}
	if m.AddGhost(task(2, 0.1, 0, 0, 5), 6) {
		t.Fatal("expired-on-arrival ghost admitted")
	}
	m.Step(20)
	if st := m.Stats(); st.Expired != 0 {
		t.Fatalf("ghost expiry counted: %+v", st)
	}
	if log := m.TakeChanges(nil); len(log) != 0 {
		t.Fatalf("ghost expiry logged %+v", log)
	}

	// Committed ghost: a real assignment, counted here, logged as an
	// assignment flagged as a ghost (the owner shard accounts the task's
	// lifecycle).
	m = machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	m.AddGhost(task(1, 0.1, 0, 0, 500), 0)
	m.Step(0)
	if st := m.Stats(); st.Assigned != 1 {
		t.Fatalf("ghost commit not counted: %+v", st)
	}
	want := []Change{{Kind: TaskAssigned, Ghost: true, Task: 1, Worker: 1, Arrive: 10}}
	if log := m.TakeChanges(nil); !slices.Equal(log, want) {
		t.Fatalf("change log = %+v, want only ghost task 1 assigned to worker 1 arriving at 10", log)
	}
}

// TestMachineRetractCommit: retraction undoes the commitment — position,
// motion, and stats — and the worker resumes the remainder of its plan in
// the same instant.
func TestMachineRetractCommit(t *testing.T) {
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.1, 0, 0, 500), 0)
	m.AddTask(task(2, 0.3, 0, 0, 500), 0)
	m.Step(0)
	if log := m.TakeChanges(nil); len(log) != 1 || log[0].Kind != TaskAssigned || log[0].Task != 1 {
		t.Fatalf("change log = %+v, want the near task 1 assigned", log)
	}
	if !m.RetractCommit(1, 1, 0) {
		t.Fatal("retraction of a live commit failed")
	}
	if m.RetractCommit(1, 1, 0) {
		t.Fatal("double retraction succeeded")
	}
	// The retracted worker must have resumed its plan and taken task 2 from
	// its original position (arrival 30 = 0.3 km at 10 m/s). The retraction
	// itself logs nothing: the driver that retracts knows the loser.
	want := []Change{{Kind: TaskAssigned, Task: 2, Worker: 1, Arrive: 30}}
	if log := m.TakeChanges(nil); !slices.Equal(log, want) {
		t.Fatalf("change log after resume = %+v, want task 2 assigned arriving at 30", log)
	}
	if st := m.Stats(); st.Assigned != 1 {
		t.Fatalf("assigned = %d after retract+resume, want 1", st.Assigned)
	}
	if wp, ok := m.PlanOf(1); !ok || wp.Committed != 2 {
		t.Fatalf("plan = %+v, want committed to task 2", wp)
	}
}

// TestMachineRemoveOpenTask: CancelTask, ShedTask and DropTask take any open
// task out of the pool, one a fixed plan reserves included, and differ only
// in what they account — an owned cancel or shed counts and logs a
// TaskClosed, a ghost replica or a drop accounts nothing. A removed task is
// never assigned, even when a fixed plan had reserved it, and its id is free
// to reuse. A task is reserved while it is open and in a worker's fixed plan
// (PlanOf's Next), so a removed one is reserved by no plan.
func TestMachineRemoveOpenTask(t *testing.T) {
	removals := []struct {
		name   string
		remove func(*Machine, int) bool
		count  func(Stats) int // nil: the removal accounts nothing
	}{
		{"cancel", (*Machine).CancelTask, func(st Stats) int { return st.Cancelled }},
		{"shed", (*Machine).ShedTask, func(st Stats) int { return st.Shed }},
		{"drop", (*Machine).DropTask, nil},
	}
	pools := []struct {
		name        string
		id          int
		setup       func(*Machine)
		owned, open bool
	}{
		{"owned", 1, func(m *Machine) { m.AddTask(task(1, 0.1, 0, 0, 500), 0) }, true, true},
		{"ghost", 1, func(m *Machine) { m.AddGhost(task(1, 0.1, 0, 0, 500), 0) }, false, true},
		{"fta-reserved", 2, func(m *Machine) {
			m.AddWorker(worker(1, 0, 0, 2, 0, 10000), 0)
			m.AddTask(task(1, 0.5, 0, 0, 9000), 0)
			m.AddTask(task(2, 0.9, 0, 0, 9000), 0)
			m.Step(0) // fixed plan (1, 2): task 1 committed, task 2 reserved
			m.TakeChanges(nil)
		}, true, true},
		{"unknown", 99, func(*Machine) {}, false, false},
	}
	for _, r := range removals {
		for _, p := range pools {
			t.Run(r.name+"/"+p.name, func(t *testing.T) {
				m := machineWith(true)
				p.setup(m)
				id := p.id
				wp, _ := m.PlanOf(1)
				if reserved := slices.Contains(wp.Next, id); reserved != (p.name == "fta-reserved") {
					t.Fatalf("setup: task %d reserved = %v", id, reserved)
				}
				assigned := m.Stats().Assigned
				if got := r.remove(m, id); got != p.open {
					t.Fatalf("removal returned %v, want %v", got, p.open)
				}
				want := 0
				if r.count != nil && p.owned {
					want = 1
				}
				if st := m.Stats(); st.Cancelled+st.Shed != want || (r.count != nil && r.count(st) != want) {
					t.Errorf("cancelled/shed = %d/%d, want %d in the %s counter", st.Cancelled, st.Shed, want, r.name)
				}
				var wantLog []Change
				if want == 1 {
					wantLog = []Change{{Kind: TaskClosed, Task: id, Worker: -1}}
				}
				if log := m.TakeChanges(nil); !slices.Equal(log, wantLog) {
					t.Errorf("change log = %+v, want %+v", log, wantLog)
				}
				if _, open := m.open[id]; open || m.ghost[id] {
					t.Errorf("id %d still open or ghost after removal", id)
				}
				m.Step(50) // the fixed plan's worker reaches task 1; its next head is gone
				m.Step(90)
				if got := m.Stats().Assigned; got != assigned {
					t.Errorf("assigned = %d after removal, want %d", got, assigned)
				}
				if !m.AddTask(task(id, 0.3, 0, 0, 9000), 90) {
					t.Errorf("id %d cannot be added again", id)
				}
				// No plan holds the new task: the fixed plan's worker, idle
				// since its plan ran dry, takes it.
				m.Step(91)
				if p.name == "fta-reserved" {
					assigned++
				}
				if got := m.Stats().Assigned; got != assigned {
					t.Errorf("assigned = %d after the id's reuse, want %d", got, assigned)
				}
			})
		}
	}
}

// TestMachineFixedPlanKeepsReservationAcrossIDReuse: a fixed plan reserves
// the task it names, not the id. Worker 1's plan still names a cancelled task
// 5 when worker 2's plan takes the new task 5; worker 1 leaving must not hand
// worker 2's task to worker 3, who stands nearer to it.
func TestMachineFixedPlanKeepsReservationAcrossIDReuse(t *testing.T) {
	m := machineWith(true)
	m.AddWorker(worker(1, 0, 0, 2, 0, 10000), 0)
	m.AddTask(task(6, 0.5, 0, 0, 9000), 0)
	m.AddTask(task(5, 0.9, 0, 0, 9000), 0)
	m.Step(0) // fixed plan (6, 5): task 6 committed, task 5 held
	if wp, _ := m.PlanOf(1); wp.Committed != 6 || !slices.Equal(wp.Next, []int{5}) {
		t.Fatalf("setup: worker 1 plan %+v, want 6 committed and 5 next", wp)
	}

	m.CancelTask(5)
	m.AddWorker(worker(2, 10, 0, 2, 1, 10000), 1)
	m.AddTask(task(7, 10.5, 0, 1, 9000), 1)
	m.AddTask(task(5, 10.9, 0, 1, 9000), 1)
	m.Step(1) // fixed plan (7, 5): task 7 committed, the new task 5 held

	m.RemoveWorker(1, 2) // leaves on reaching task 6, its stale entry for 5 with it
	m.AddWorker(worker(3, 11.3, 0, 2, 2, 10000), 2)
	for _, now := range []float64{2, 50, 52} {
		m.Step(now)
	}
	want := []Change{
		{Kind: TaskAssigned, Task: 6, Worker: 1, Arrive: 50},
		{Kind: TaskClosed, Task: 5, Worker: -1},
		{Kind: TaskAssigned, Task: 7, Worker: 2, Arrive: 51},
		{Kind: TaskAssigned, Task: 5, Worker: 2, Arrive: 92},
	}
	same := func(a, b Change) bool {
		return a.Kind == b.Kind && a.Task == b.Task && a.Worker == b.Worker && math.Abs(a.Arrive-b.Arrive) < 1e-9
	}
	if got := m.TakeChanges(nil); !slices.EqualFunc(got, want, same) {
		t.Fatalf("changes %+v, want %+v", got, want)
	}
}

// TestMachineFixedPlanReleasesTaskItCannotReach: a fixed plan holds a task
// only while the task is in it. Planned from t=0, worker 1 would reach task 2
// at 90, before it expires at 95; stepped at 60, it would arrive at 100, so it
// drops the task from its plan, and the task is back in the pool for worker 2.
func TestMachineFixedPlanReleasesTaskItCannotReach(t *testing.T) {
	m := machineWith(true)
	m.AddWorker(worker(1, 0, 0, 2, 0, 10000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 9000), 0)
	m.AddTask(task(2, 0.9, 0, 0, 95), 0)
	m.Step(0) // fixed plan (1, 2): task 1 committed, task 2 held
	m.AddWorker(worker(2, 0.95, 0, 2, 60, 10000), 60)
	m.Step(60) // worker 1 arrives at task 1 and drops task 2; worker 2 planned without it
	if wp, _ := m.PlanOf(1); len(wp.Next) != 0 || wp.Moving {
		t.Fatalf("worker 1 plan %+v, want idle with task 2 dropped", wp)
	}
	m.Step(61)
	if wp, _ := m.PlanOf(2); wp.Committed != 2 {
		t.Fatalf("worker 2 plan %+v, want task 2 committed", wp)
	}
	if st := m.Stats(); st.Assigned != 2 || st.Expired != 0 {
		t.Fatalf("assigned/expired = %d/%d, want 2/0", st.Assigned, st.Expired)
	}
}

// TestMachineIDReuseWithinBatch pins the stale-pointer fix: cancelling a
// task and reusing its id before the next Step must leave exactly one live
// copy in the planning pool. Before the identity check two pointers with one
// id could both enter the pool, and a planner assigning both would trip the
// fatal plan-consistency panic.
func TestMachineIDReuseWithinBatch(t *testing.T) {
	m := machineWith(false)
	// Two workers, each nearest to one of the two same-id task locations:
	// with both stale and fresh pointers in the pool the planner would
	// assign "task 1" twice and Step would panic.
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	m.AddWorker(worker(2, 3, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.1, 0, 0, 500), 0)
	m.CancelTask(1)
	m.AddTask(task(1, 3.1, 0, 0, 500), 0)
	m.Step(0) // must not panic
	if st := m.Stats(); st.Assigned != 1 || st.Cancelled != 1 {
		t.Fatalf("assigned/cancelled = %d/%d, want 1/1 (only the fresh copy is live)",
			st.Assigned, st.Cancelled)
	}
	// The fresh copy at x=3.1 belongs to worker 2; worker 1 must stay idle.
	if wp, ok := m.PlanOf(2); !ok || wp.Committed != 1 {
		t.Fatalf("worker 2 plan = %+v, want committed to the fresh task", wp)
	}
	if wp, ok := m.PlanOf(1); !ok || wp.Committed != -1 || wp.Moving {
		t.Fatalf("worker 1 plan = %+v, want idle (stale pointer must not be assignable)", wp)
	}
}
