package dispatch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/workload"
)

// conserve asserts the admission-era accounting identity on a drained
// dispatcher: every submitted task is terminal exactly once.
func conserve(t *testing.T, m Metrics, submitted int) {
	t.Helper()
	if got := m.Assigned + m.Expired + m.Cancelled + int(m.Shed); got != submitted {
		t.Fatalf("conservation: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d",
			m.Assigned, m.Expired, m.Cancelled, m.Shed, got, submitted)
	}
}

// TestAdmissionShedAtExactCapacity pins the boundary comparison: a pool at
// exactly MaxOpenTasks is full, so a newcomer that is the least urgent task
// in sight (no later-deadline victim to displace) and has less than
// DeferSlack of validity is shed, not admitted and not deferred.
func TestAdmissionShedAtExactCapacity(t *testing.T) {
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()),
		// DeferSlack beyond every deadline in the test forces the shed branch,
		// so each decision is terminal and directly observable.
		Admission: AdmissionConfig{MaxOpenTasks: 2, DeferSlack: 10000},
	})
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 500, Cell: -1})
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(1)
	if m := d.Snapshot(); m.RoutedTasks != 2 || m.Shed != 0 {
		t.Fatalf("after filling to capacity: open %d shed %d, want 2/0", m.RoutedTasks, m.Shed)
	}
	// Latest deadline in sight: no victim qualifies, the newcomer yields.
	d.SubmitTask(&core.Task{ID: 3, Loc: geo.Point{X: 0.3}, Pub: 1, Exp: 700, Cell: -1})
	d.Advance(2)
	m := d.Snapshot()
	if m.RoutedTasks != 2 || m.Shed != 1 || m.Deferred != 0 {
		t.Fatalf("over-cap newcomer: open %d shed %d deferred %d, want 2/1/0", m.RoutedTasks, m.Shed, m.Deferred)
	}
	// Earlier deadline than the latest victim: the victim (task 2, exp 600)
	// is displaced and — under the huge slack threshold — shed.
	d.SubmitTask(&core.Task{ID: 4, Loc: geo.Point{X: 0.4}, Pub: 2, Exp: 100, Cell: -1})
	d.Advance(3)
	m = d.Snapshot()
	if m.RoutedTasks != 2 || m.Shed != 2 {
		t.Fatalf("displacement: open %d shed %d, want 2/2", m.RoutedTasks, m.Shed)
	}
	// No workers ever came online: the survivors expire, and the ledger
	// accounts all four submits.
	d.Advance(600)
	m = d.Snapshot()
	if m.Expired != 2 {
		t.Fatalf("expired = %d, want 2 (tasks 1 and 4)", m.Expired)
	}
	conserve(t, m, 4)
}

// TestAdmissionCancelFreesSlot pins that a cancel frees its pool slot at
// once: a task cancelled earlier in an epoch no longer counts against
// MaxOpenTasks when a later submit of the same epoch is admitted. With a
// pool of one, the submit that follows the cancel finds the pool empty and
// is admitted rather than shed.
func TestAdmissionCancelFreesSlot(t *testing.T) {
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()),
		// DeferSlack beyond every deadline makes a refused submit a shed.
		Admission: AdmissionConfig{MaxOpenTasks: 1, DeferSlack: 10000},
	})
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(1)
	d.CancelTask(1)
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 1, Exp: 500, Cell: -1})
	d.Advance(2)
	if m := d.Snapshot(); m.Shed != 0 || m.RoutedTasks != 1 || m.Cancelled != 1 {
		t.Fatalf("submit after cancel: shed %d open %d cancelled %d, want 0/1/1", m.Shed, m.RoutedTasks, m.Cancelled)
	}
}

// TestAdmissionCancelWithdrawsDeferredTask: a cancel of a task that waits
// deferred — past the submit cap, or displaced from a full pool — withdraws
// it. The task counts as cancelled, its chain ends Cancelled, and the
// requeued submit is never admitted.
func TestAdmissionCancelWithdrawsDeferredTask(t *testing.T) {
	for _, c := range []struct {
		name      string
		admission AdmissionConfig
	}{
		{"submit-cap", AdmissionConfig{MaxSubmitsPerEpoch: 1}},
		{"displaced", AdmissionConfig{MaxOpenTasks: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(Config{Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()), Admission: c.admission,
				Obs: ObsConfig{LedgerTasks: 64}})
			// Later ids carry earlier deadlines, so each displaces the last.
			for i, id := range []int{10, 11, 12} {
				d.SubmitTask(&core.Task{ID: id, Loc: geo.Point{X: 0.1 * float64(i+1)}, Pub: 0, Exp: float64(500 - 100*i), Cell: -1})
			}
			d.Advance(1)
			if m := d.Snapshot(); m.Deferred == 0 {
				t.Fatal("nothing was deferred")
			}
			waiting := 12
			if c.name == "displaced" {
				waiting = 11 // 12 holds the pool, 10 and 11 wait
			}
			d.CancelTask(waiting)
			d.Advance(1000)
			m := d.Snapshot()
			if m.Cancelled != 1 || m.Unroutable != 0 || m.RoutedTasks != 0 {
				t.Fatalf("cancelled %d, unroutable %d, open %d: want 1/0/0", m.Cancelled, m.Unroutable, m.RoutedTasks)
			}
			conserve(t, m, 3)
			if issues, _ := d.LedgerAudit(); len(issues) != 0 {
				t.Fatalf("ledger: %v", issues)
			}
			h, _ := d.TaskHistory(waiting)
			if end, ok := h.Terminal(); !ok || end.State != obs.Cancelled {
				t.Fatalf("task %d: chain %+v, want it to end cancelled", waiting, h.Transitions)
			}
		})
	}
}

// TestAdmissionDeferredTaskIsRecoverable pins that deferral is non-terminal:
// a displaced task requeues, waits out the backlog, and is eventually
// admitted and served — backpressure reorders work, it does not lose it.
func TestAdmissionDeferredTaskIsRecoverable(t *testing.T) {
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1},
	})
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 2, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.5}, Pub: 0, Exp: 1000, Cell: -1})
	d.SubmitTask(&core.Task{ID: 11, Loc: geo.Point{X: 0.4}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(600)
	m := d.Snapshot()
	if m.Deferred == 0 {
		t.Fatal("the more urgent submit never displaced the open task into a deferral")
	}
	if m.Assigned != 2 {
		t.Fatalf("assigned = %d, want 2 (deferred task must be served once the pool clears)", m.Assigned)
	}
	if m.Shed != 0 {
		t.Fatalf("shed = %d, want 0", m.Shed)
	}
	conserve(t, m, 2)
}

// TestAdmissionDisplacedGhostTaskDropsReplicas pins the halo interaction: when
// admission displaces a boundary task, its ghost replicas leave the
// neighboring planning pools with it — and when the deferral is later
// readmitted, the task is re-replicated and stays fully servable.
func TestAdmissionDisplacedGhostTaskDropsReplicas(t *testing.T) {
	cfg := handoffConfig()
	cfg.Admission = AdmissionConfig{MaxOpenTasks: 1}
	d := New(cfg)
	d.WorkerOnline(farWorker())
	// Boundary task: owned by shard 1, replicated into shard 0.
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 900, Cell: -1})
	d.Advance(1)
	if m := d.Snapshot(); m.RoutedGhosts != 1 {
		t.Fatalf("routed ghosts = %d, want 1 before displacement", m.RoutedGhosts)
	}
	// An interior task with a far earlier deadline displaces it (deep enough
	// in shard 0 that its own halo disk stays clear of the boundary).
	d.SubmitTask(&core.Task{ID: 11, Loc: geo.Point{X: 1, Y: 0.3}, Pub: 1, Exp: 60, Cell: -1})
	d.Advance(2)
	m := d.Snapshot()
	if m.Deferred == 0 {
		t.Fatal("boundary task was not deferred by the urgent newcomer")
	}
	if m.RoutedTasks != 1 || m.RoutedGhosts != 0 {
		t.Fatalf("after displacement: open %d ghosts %d, want 1/0 — replicas must leave with their owner", m.RoutedTasks, m.RoutedGhosts)
	}
	// A worker that can only reach the boundary task from the far side of
	// the boundary comes online after the urgent task expires: the readmitted
	// deferral must re-replicate and be served through the new ghost.
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOnline,
		Worker: &core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 1, On: d.Now(), Off: 4000}})
	d.Advance(800)
	m = d.Snapshot()
	if m.Assigned != 1 || m.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 1/1 (deferred boundary task served, urgent one expired)", m.Assigned, m.Expired)
	}
	if m.GhostHits != 1 {
		t.Fatalf("ghost hits = %d, want 1 (the readmitted task must be won through its replica)", m.GhostHits)
	}
	conserve(t, m, 2)
}

// TestAdmissionShedsFTAReservedTask pins the fixed-plan interaction: shedding
// a task an FTA plan has reserved (but not yet committed) releases the
// reservation, the worker skips the stale plan head when it gets there, and —
// with its locked plan exhausted — re-enters planning and serves the
// newcomers instead. The counters stay consistent: the shed task is neither
// assigned nor expired.
func TestAdmissionShedsFTAReservedTask(t *testing.T) {
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(searchFactory()), Fixed: true,
		Admission: AdmissionConfig{MaxOpenTasks: 2, DeferSlack: 10000},
	})
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 2, On: 0, Off: 4000})
	// The FTA plan sequences both tasks: task 10 commits immediately (20 s of
	// travel), task 20 stays reserved behind it for later.
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 300, Cell: -1})
	d.SubmitTask(&core.Task{ID: 20, Loc: geo.Point{X: 1}, Pub: 0, Exp: 800, Cell: -1})
	d.Advance(5)
	if m := d.Snapshot(); m.Assigned != 1 || m.RoutedTasks != 1 {
		t.Fatalf("reservation setup: assigned %d open %d, want 1/1 (task 10 committed, task 20 reserved)",
			m.Assigned, m.RoutedTasks)
	}
	// Two more urgent submits: the first fills the pool, the second displaces
	// the reserved task 20 (latest deadline), which sheds under the huge
	// slack threshold.
	d.SubmitTask(&core.Task{ID: 30, Loc: geo.Point{X: 0.5}, Pub: 5, Exp: 250, Cell: -1})
	d.SubmitTask(&core.Task{ID: 40, Loc: geo.Point{X: 0.3}, Pub: 5, Exp: 100, Cell: -1})
	d.Advance(6)
	m := d.Snapshot()
	if m.Shed != 1 || m.RoutedTasks != 2 {
		t.Fatalf("displacement: shed %d open %d, want 1/2 (reserved task 20 shed, newcomers admitted)",
			m.Shed, m.RoutedTasks)
	}
	// The worker finishes task 10, skips the stale head, and its exhausted
	// fixed plan re-enters planning for the two newcomers.
	d.Advance(300)
	m = d.Snapshot()
	if m.Assigned != 3 {
		t.Fatalf("assigned = %d, want 3 (the freed worker must serve both newcomers, not idle on a stale reservation)",
			m.Assigned)
	}
	conserve(t, m, 4)
}

// TestAdmissionSubmitCapDefersOverflow pins the per-epoch batch cap: of a
// burst of simultaneous submits only MaxSubmitsPerEpoch are admitted per
// epoch, the overflow defers one epoch at a time, and — with enough validity
// — everything is eventually admitted without a single shed.
func TestAdmissionSubmitCapDefersOverflow(t *testing.T) {
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()),
		Admission: AdmissionConfig{MaxSubmitsPerEpoch: 2},
	})
	for i := 0; i < 6; i++ {
		d.SubmitTask(&core.Task{ID: 10 + i, Loc: geo.Point{X: float64(i) / 10}, Pub: 0, Exp: 500, Cell: -1})
	}
	d.Advance(1)
	if m := d.Snapshot(); m.RoutedTasks != 2 || m.Deferred != 4 {
		t.Fatalf("first epoch: open %d deferred %d, want 2/4", m.RoutedTasks, m.Deferred)
	}
	d.Advance(3)
	m := d.Snapshot()
	if m.RoutedTasks != 6 {
		t.Fatalf("after the backlog drains: open %d, want all 6 admitted", m.RoutedTasks)
	}
	if m.Deferred != 4+2 || m.Shed != 0 {
		t.Fatalf("deferred %d shed %d, want 6/0 (4 then 2 requeues, nothing lost)", m.Deferred, m.Shed)
	}
	d.Advance(600)
	conserve(t, d.Snapshot(), 6)
}

// TestLoadGenCountsShedInsteadOfBlocking pins the load generator's overload
// contract: replaying a trace against a dispatcher that sheds under a tiny
// pool cap terminates at the logical horizon and surfaces the shed and defer
// counters in its result's Metrics instead of waiting for assignments that
// can never arrive.
func TestLoadGenCountsShedInsteadOfBlocking(t *testing.T) {
	sc := testScenario(t)
	d := New(Config{
		Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0,
		NewLadder: oneTier(greedyFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 5, DeferSlack: 10000},
	})
	m := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d).Metrics
	if m.Shed == 0 {
		t.Fatal("a 5-task pool cap over a full trace must shed")
	}
	if now := d.Snapshot(); m.Shed != now.Shed || m.Deferred != now.Deferred {
		t.Fatalf("result counters %d/%d diverge from snapshot %d/%d",
			m.Shed, m.Deferred, now.Shed, now.Deferred)
	}
	if !d.Quiesce(256) {
		t.Fatal("dispatcher failed to drain after the replay")
	}
	conserve(t, d.Snapshot(), len(sc.Tasks))
}

// TestAdmissionDeterministicAcrossParallelism extends the determinism
// contract to the admission path: shed/defer decisions ride the event stream,
// not the scheduler, so a capped replay is byte-identical at every
// parallelism level.
func TestAdmissionDeterministicAcrossParallelism(t *testing.T) {
	cfg := workload.Yueche().Scaled(0.1)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	run := func(parallelism int) string {
		d := New(Config{
			Shards: 4, Grid: sc.Grid, Step: 2, Now: sc.T0,
			NewLadder:   oneTier(searchFactory()),
			Parallelism: parallelism,
			Admission:   AdmissionConfig{MaxOpenTasks: 12},
		})
		m := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d).Metrics
		if m.Shed == 0 && m.Deferred == 0 {
			t.Fatal("capped replay never exercised admission control")
		}
		return digest(m)
	}
	ref := run(1)
	for _, parallelism := range []int{1, 2, 4, 0} {
		if got := run(parallelism); got != ref {
			t.Fatalf("parallelism %d diverged:\n got %s\nwant %s", parallelism, got, ref)
		}
	}
}

// TestAdmissionVictimHeapStaysBounded pins the victim heap to the open pool.
// Under a pool cap that never fills (1,000 against about 100 open tasks),
// every admitted submit pushes a victim entry and the task then expires, so
// without compaction the heap would hold one entry per submit — 40,000 here,
// each keeping its task alive. Compaction at push keeps it within twice the
// open pool plus victimSlack; the epoch's Step may close up to one epoch of
// submits after the last push, hence the 2·perEpoch.
func TestAdmissionVictimHeapStaysBounded(t *testing.T) {
	const epochs, perEpoch = 2000, 20
	d := New(Config{
		Shards: 1, Step: 1, NewLadder: oneTier(greedyFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1000},
	})
	id := 0
	for e := 0; e < epochs; e++ {
		now := d.Now()
		for i := 0; i < perEpoch; i++ {
			id++
			d.SubmitTask(&core.Task{ID: id, Loc: geo.Point{X: float64(i) / perEpoch}, Pub: now, Exp: now + 5, Cell: -1})
		}
		d.Tick()
		d.mu.Lock()
		entries, open := len(d.victims.items), d.openLocked()
		d.mu.Unlock()
		if bound := 2*open + victimSlack + 2*perEpoch; entries > bound {
			t.Fatalf("epoch %d: victim heap holds %d entries for %d open tasks, bound %d", e, entries, open, bound)
		}
	}
	if m := d.Snapshot(); m.Shed != 0 || m.Deferred != 0 {
		t.Fatalf("the pool never fills, yet shed %d deferred %d", m.Shed, m.Deferred)
	}
	d.Advance(d.Now() + 10)
	conserve(t, d.Snapshot(), id)
}
