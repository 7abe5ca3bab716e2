package stream

import (
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
// task out of the pool, releasing an FTA reservation, and differ only in what
// they account — an owned cancel or shed counts and logs a TaskClosed, a ghost
// replica or a drop accounts nothing. A removed task is never assigned, even
// when a fixed plan had reserved it, and its id is free to reuse.
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
				if m.reserved[id] != (p.name == "fta-reserved") {
					t.Fatalf("setup: task %d reserved = %v", id, m.reserved[id])
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
				if m.HasOpenTask(id) || m.reserved[id] || m.ghost[id] {
					t.Errorf("id %d still open, reserved or ghost after removal", id)
				}
				m.Step(50) // the fixed plan's worker reaches task 1; its next head is gone
				m.Step(90)
				if got := m.Stats().Assigned; got != assigned {
					t.Errorf("assigned = %d after removal, want %d", got, assigned)
				}
				if !m.AddTask(task(id, 0.3, 0, 0, 9000), 90) {
					t.Errorf("id %d cannot be added again", id)
				}
			})
		}
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
