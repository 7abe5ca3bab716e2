package dispatch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/workload"
)

// The handoff tests run on a 2×2 grid over [0,4)² with two shards: the
// banded ownership map gives row 0 (y < 2) to shard 0 and row 1 (y ≥ 2) to
// shard 1, so y = 2 is the boundary the halo protocol must bridge.
func handoffConfig() Config {
	return Config{
		Shards:    2,
		Grid:      geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 2, 2),
		Step:      1,
		NewLadder: oneTier(greedyFactory()),
	}
}

// farWorker widens the halo radius to 1.5 km from the far corner of shard 0,
// out of reach of every task the handoff tests place near x = 1: the tests
// that need a replica no worker serves bring it online.
func farWorker() *core.Worker {
	return &core.Worker{ID: 99, Loc: geo.Point{X: 3.5, Y: 0.2}, Reach: 1.5, On: 0, Off: 4000}
}

// handoffConfig8x8 is the two-shard handoff geometry on a finer 8×8 grid
// (0.5 km cells over [0,4)²): the boundary is still y = 2, and a halo disk
// covers a handful of cells instead of all four.
func handoffConfig8x8() Config {
	cfg := handoffConfig()
	cfg.Grid = geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 8, 8)
	return cfg
}

// TestGhostMakesBoundaryTaskVisible is the halo protocol's core scenario: a
// task owned by one shard, reachable only by a worker pinned to the
// neighboring shard. The halo radius — the worker's 1 km reach — puts a
// replica in the worker's shard, and the worker sees and serves it; without
// the replica it would expire unseen.
func TestGhostMakesBoundaryTaskVisible(t *testing.T) {
	d := New(handoffConfig())
	// Worker in shard 0, 0.2 km south of the task across the boundary.
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 1, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(700)
	m := d.Snapshot()
	if m.Assigned != 1 || m.Expired != 0 {
		t.Fatalf("assigned/expired = %d/%d, want 1/0", m.Assigned, m.Expired)
	}
	if m.GhostCopies != 1 || m.GhostHits != 1 {
		t.Fatalf("ghost copies/hits = %d/%d, want 1/1", m.GhostCopies, m.GhostHits)
	}
	if m.RoutedGhosts != 0 || m.RoutedTasks != 0 {
		t.Fatalf("routing not drained: ghosts=%d tasks=%d", m.RoutedGhosts, m.RoutedTasks)
	}
}

// TestGhostServesTravelledWorker holds the halo to its territory guarantee:
// a worker stays in the shard it came online in after it travels out of that
// shard's territory, and still sees every task within the largest admitted
// reach of that territory. Worker 1 comes online in shard 0, serves a ghost
// across y = 2 and waits there; the next task, owned by shard 1, has so
// little time left that its time-left disc stops short of shard 0's
// territory, but the worker can reach it in time. A halo bounded by the time
// left would replicate it nowhere, and it would expire unserved in a shard
// with no worker.
func TestGhostServesTravelledWorker(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 1, On: 0, Off: 9000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(50) // 0.2 km at 5 m/s: the worker waits at the task from t = 40
	if wp, ok := d.PlanOf(1); !ok || wp.Moving || wp.Committed != -1 {
		t.Fatalf("worker 1 = %+v at t = 50, want it idle at task 10", wp)
	}
	// Task 20 is 0.8 km from the worker and 0.9 km from shard 0's territory.
	next := &core.Task{ID: 20, Loc: geo.Point{X: 1, Y: 2.9}, Pub: 50, Exp: 220, Cell: -1}
	if left := travel.DistWithin(next.Exp - 50); left >= 0.9 || 50+travel.Time(geo.Point{X: 1, Y: 2.1}, next.Loc) >= next.Exp {
		t.Fatalf("geometry: time-left disc %.3f km must miss shard 0 and the worker must arrive before %v", left, next.Exp)
	}
	d.SubmitTask(next)
	d.Advance(300)
	m := d.Snapshot()
	if m.Assigned != 2 || m.Expired != 0 {
		t.Fatalf("assigned/expired = %d/%d, want 2/0: the travelled worker must serve task 20", m.Assigned, m.Expired)
	}
	if m.GhostCopies != 2 || m.GhostHits != 2 {
		t.Fatalf("ghost copies/hits = %d/%d, want 2/2", m.GhostCopies, m.GhostHits)
	}
}

// TestArbitrationPicksEarliestArrival pins the conflict protocol: two shards
// commit the same boundary task in one epoch; the closer worker (earlier
// arrival) wins regardless of which shard owns the task, the loser is
// retracted, and the task is assigned exactly once.
func TestArbitrationPicksEarliestArrival(t *testing.T) {
	d := New(handoffConfig())
	// Task owned by shard 1; the shard-0 worker competes through a ghost.
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.4}, Reach: 1, On: 0, Off: 4000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.5}, Reach: 1, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(1)
	m := d.Snapshot()
	if m.Assigned != 1 {
		t.Fatalf("assigned = %d, want exactly 1 (double commit must arbitrate)", m.Assigned)
	}
	if m.CommitConflicts != 1 || m.Retractions != 1 {
		t.Fatalf("conflicts/retractions = %d/%d, want 1/1", m.CommitConflicts, m.Retractions)
	}
	// Worker 2 is 0.4 km away, worker 1 is 0.7 km: worker 2 arrives first.
	if wp, ok := d.PlanOf(2); !ok || wp.Committed != 10 {
		t.Fatalf("winner plan = %+v, want worker 2 committed to task 10", wp)
	}
	if wp, ok := d.PlanOf(1); !ok || wp.Committed != -1 {
		t.Fatalf("loser plan = %+v, want worker 1 idle after retraction", wp)
	}
	// The owner's commit won here, so the win is not a ghost hit.
	if m.GhostHits != 0 {
		t.Fatalf("ghost hits = %d, want 0 (owner shard won)", m.GhostHits)
	}
}

// TestArbitrationGhostWin mirrors the conflict with the geometry flipped:
// the non-owner shard's worker is closer, so the ghost commit must win and
// the owner's copy must be dropped.
func TestArbitrationGhostWin(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.8}, Reach: 1, On: 0, Off: 4000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.9}, Reach: 1, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(1)
	m := d.Snapshot()
	if m.Assigned != 1 || m.CommitConflicts != 1 || m.Retractions != 1 {
		t.Fatalf("assigned/conflicts/retractions = %d/%d/%d, want 1/1/1",
			m.Assigned, m.CommitConflicts, m.Retractions)
	}
	if wp, ok := d.PlanOf(1); !ok || wp.Committed != 10 {
		t.Fatalf("winner plan = %+v, want worker 1 committed via its ghost copy", wp)
	}
	if m.GhostHits != 1 {
		t.Fatalf("ghost hits = %d, want 1 (non-owner shard won)", m.GhostHits)
	}
}

// TestRetractedWorkerResumesPlan: a loser whose plan held a second task must
// take it in the same epoch rather than idling until the next replan.
func TestRetractedWorkerResumesPlan(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 2, On: 0, Off: 9000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.2}, Reach: 2, On: 0, Off: 9000})
	// The contended boundary task, plus a fallback deep in shard 0 that only
	// worker 1 plans (worker 2 is farther from it than worker 1).
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 11, Loc: geo.Point{X: 1, Y: 1.0}, Pub: 0, Exp: 900, Cell: -1})
	d.Advance(1)
	m := d.Snapshot()
	if m.Assigned != 2 {
		t.Fatalf("assigned = %d, want 2 (loser resumes remaining plan in-epoch)", m.Assigned)
	}
	if wp, ok := d.PlanOf(1); !ok || wp.Committed != 11 {
		t.Fatalf("retracted worker plan = %+v, want committed to fallback task 11", wp)
	}
}

// TestArbitrationDropsBeforeRetracting pins the two-phase round: all copies
// of every arbitrated task are purged before any loser resumes its plan. A
// loser whose plan holds a replica of a task arbitrated *later* in the same
// round must not commit it — its committed owner copy is in that task's
// group, so a resume-commit would assign the task twice.
func TestArbitrationDropsBeforeRetracting(t *testing.T) {
	d := New(handoffConfig())
	// Shard 0: worker 1 mid-way between the boundary tasks, planning both
	// via ghosts. Shard 1: workers 2 and 3, each on top of one task.
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1.8, Y: 1.95}, Reach: 1.5, On: 0, Off: 9000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.05}, Reach: 1, On: 0, Off: 9000})
	d.WorkerOnline(&core.Worker{ID: 3, Loc: geo.Point{X: 2.5, Y: 2.1}, Reach: 1, On: 0, Off: 9000})
	// Ids are chosen so the contended task (5, the one worker 1 plans
	// first) is arbitrated before the task its resume would steal (9).
	d.SubmitTask(&core.Task{ID: 5, Loc: geo.Point{X: 2.5, Y: 2.05}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 9, Loc: geo.Point{X: 1, Y: 2.0}, Pub: 0, Exp: 900, Cell: -1})
	d.Advance(1)
	m := d.Snapshot()
	if m.Assigned > 2 {
		t.Fatalf("assigned = %d for 2 tasks: a retraction resume double-committed an arbitrated task", m.Assigned)
	}
	if m.Assigned != 2 {
		t.Fatalf("assigned = %d, want 2", m.Assigned)
	}
	if wp, ok := d.PlanOf(1); !ok || wp.Committed != -1 {
		t.Fatalf("loser plan = %+v, want worker 1 idle (both its plan entries were won elsewhere)", wp)
	}
	if wp, ok := d.PlanOf(2); !ok || wp.Committed != 9 {
		t.Fatalf("worker 2 plan = %+v, want committed to task 9", wp)
	}
	if wp, ok := d.PlanOf(3); !ok || wp.Committed != 5 {
		t.Fatalf("worker 3 plan = %+v, want committed to task 5", wp)
	}
}

// TestAutoHaloWidensForLateLongReachWorker pins reGhost: a task submitted
// while no worker is online is not replicated (halo radius 0), but a
// long-reach worker coming online later widens the halo and the already-open
// boundary task must become visible to its shard retroactively.
func TestAutoHaloWidensForLateLongReachWorker(t *testing.T) {
	d := New(handoffConfig())
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 900, Cell: -1})
	d.Advance(2)
	if m := d.Snapshot(); m.GhostCopies != 0 {
		t.Fatalf("ghost copies before any worker = %d, want 0", m.GhostCopies)
	}
	d.Ingest(Event{Time: 2, Kind: KindWorkerOnline,
		Worker: &core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.5}, Reach: 1, On: 2, Off: 4000}})
	d.Advance(700)
	m := d.Snapshot()
	if m.Assigned != 1 || m.GhostCopies != 1 || m.GhostHits != 1 {
		t.Fatalf("assigned/copies/hits = %d/%d/%d, want 1/1/1 (reGhost must replicate the open task)",
			m.Assigned, m.GhostCopies, m.GhostHits)
	}
}

// TestOffMapTaskStillReplicated: ownership routing clamps off-map points to
// boundary cells, so the halo query must reason from the same snapped
// geometry. A worker/task pair beyond the region's east edge, straddling the
// row boundary's extension, lands in different shards — the ghost must still
// bridge them even though the task's exact disk overlaps no grid cell.
func TestOffMapTaskStillReplicated(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 6, Y: 1.9}, Reach: 1, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 6, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(700)
	m := d.Snapshot()
	if m.Assigned != 1 || m.Expired != 0 {
		t.Fatalf("assigned/expired = %d/%d, want 1/0 (off-map boundary pair must hand off)", m.Assigned, m.Expired)
	}
	if m.GhostCopies == 0 || m.GhostHits != 1 {
		t.Fatalf("ghost copies/hits = %d/%d, want >0/1", m.GhostCopies, m.GhostHits)
	}
}

// TestGhostExpiryCountedOnce: a replicated task that nobody serves expires
// in every shard holding a copy but must count exactly once.
func TestGhostExpiryCountedOnce(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(farWorker())
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 10, Cell: -1})
	d.Advance(20)
	m := d.Snapshot()
	if m.GhostCopies != 1 {
		t.Fatalf("ghost copies = %d, want 1 (the 1.5 km halo spans the boundary)", m.GhostCopies)
	}
	if m.Assigned != 0 || m.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 0/1 (replica expiry must not double count)",
			m.Assigned, m.Expired)
	}
	if m.RoutedGhosts != 0 || m.RoutedTasks != 0 {
		t.Fatalf("routing not drained after expiry: ghosts=%d tasks=%d", m.RoutedGhosts, m.RoutedTasks)
	}
}

// TestCancelDropsGhostCopies: withdrawing a replicated task must purge every
// replica before the next planning instant, or a ghost shard could assign a
// cancelled task.
func TestCancelDropsGhostCopies(t *testing.T) {
	d := New(handoffConfig())
	d.WorkerOnline(farWorker())
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 900, Cell: -1})
	d.Advance(1)
	if m := d.Snapshot(); m.RoutedGhosts != 1 {
		t.Fatalf("routed ghosts = %d, want 1", m.RoutedGhosts)
	}
	d.CancelTask(10)
	// A worker that could have served the replica comes online after the
	// cancel lands in the same epoch batch.
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOnline,
		Worker: &core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 1, On: 1, Off: 4000}})
	d.Advance(300)
	m := d.Snapshot()
	if m.Cancelled != 1 || m.Assigned != 0 {
		t.Fatalf("cancelled/assigned = %d/%d, want 1/0 (replica of a cancelled task was assignable)",
			m.Cancelled, m.Assigned)
	}
	if m.RoutedGhosts != 0 {
		t.Fatalf("routed ghosts = %d after cancel, want 0", m.RoutedGhosts)
	}
}

// TestRetractionScriptOutcome drives one scripted run through every way the
// pool changes under the handoff protocol: a boundary conflict retracts a
// loser mid-epoch (the resumed plan falls through to another task and the
// snapped-back worker re-enters the pool), a task nobody can reach waits
// until a late worker onlines next to it, a heartbeat moves a worker across
// the map, and an open task is cancelled. Every task must end where the
// script says, and a rerun must match on every per-epoch snapshot.
func TestRetractionScriptOutcome(t *testing.T) {
	script := func() ([]string, Metrics) {
		d := New(handoffConfig8x8())
		var snaps []string
		step := func(n int) {
			for i := 0; i < n; i++ {
				d.Tick()
				snaps = append(snaps, digest(d.Snapshot()))
			}
		}
		// A task no worker can reach yet.
		d.SubmitTask(&core.Task{ID: 20, Loc: geo.Point{X: 3.5, Y: 0.5}, Pub: 0, Exp: 3000, Cell: -1})
		// The boundary conflict: both workers commit task 10 through the halo,
		// arbitration retracts the farther one (worker 1), whose resumed plan
		// falls through to the fallback task 11 deep in its own shard.
		d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 0.8, On: 0, Off: 4000})
		d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.2}, Reach: 0.8, On: 0, Off: 4000})
		d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
		d.SubmitTask(&core.Task{ID: 11, Loc: geo.Point{X: 1, Y: 1.3}, Pub: 0, Exp: 600, Cell: -1})
		step(4)
		// A worker onlines within reach of task 20 and must take it.
		d.WorkerOnline(&core.Worker{ID: 3, Loc: geo.Point{X: 3.4, Y: 0.6}, Reach: 0.5, On: d.Now(), Off: 4000})
		step(4)
		// Heartbeat-move a worker across the map, then cancel an open task.
		d.Heartbeat(2, geo.Point{X: 2.0, Y: 3.5})
		d.SubmitTask(&core.Task{ID: 30, Loc: geo.Point{X: 0.5, Y: 3.5}, Pub: d.Now(), Exp: d.Now() + 400, Cell: -1})
		step(2)
		d.CancelTask(30)
		// Long enough for motions to complete and idle workers to keep planning.
		step(30)
		return snaps, d.Snapshot()
	}

	first, final := script()
	again, _ := script()
	if len(first) != len(again) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("epoch %d diverged on a rerun\nfirst: %s\nagain: %s", i, first[i], again[i])
		}
	}
	if final.Retractions == 0 {
		t.Fatal("scenario produced no retraction; the arbitration case is not exercised")
	}
	if final.Assigned != 3 || final.Expired != 0 || final.Cancelled != 1 {
		t.Fatalf("assigned/expired/cancelled = %d/%d/%d, want 3/0/1 (tasks 10, 11, 20 served; 30 cancelled)",
			final.Assigned, final.Expired, final.Cancelled)
	}
}

// TestHandoffDeterministicAcrossParallelism extends the determinism contract
// to the halo protocol: with replication and arbitration active on a real
// trace, the outcome — ghost and conflict counters included — is
// byte-identical across runs and parallelism levels.
func TestHandoffDeterministicAcrossParallelism(t *testing.T) {
	cfg := workload.Yueche().Scaled(0.1)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	run := func(parallelism int) string {
		d := New(Config{
			Shards: 4, Grid: sc.Grid, Step: 2, Now: sc.T0,
			NewLadder: oneTier(searchFactory()), Parallelism: parallelism,
		})
		m := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d).Metrics
		if m.GhostCopies == 0 {
			t.Fatal("trace produced no ghost replicas; the handoff path is not exercised")
		}
		return digest(m)
	}
	ref := run(1)
	for run2 := 0; run2 < 2; run2++ {
		for _, parallelism := range []int{1, 2, 4, 0} {
			if got := run(parallelism); got != ref {
				t.Fatalf("parallelism %d diverged:\n got %s\nwant %s", parallelism, got, ref)
			}
		}
	}
}
