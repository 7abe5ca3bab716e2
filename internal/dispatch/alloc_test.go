package dispatch

import (
	"runtime"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/wds"
)

// counting is a Planner that counts the plans it returns holding an
// assignment: each is two allocations, the plan and the one array its
// sequences are cut from. Unlike checked it allocates nothing itself, so an
// allocation count of the epoch path is not the checker's.
type counting struct {
	assign.Planner
	plans *int
}

func (c counting) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	p := c.Planner.Plan(workers, tasks, now)
	if len(p) > 0 {
		*c.plans++
	}
	return p
}

// epochRound is one round of the contested-boundary script the epoch
// allocation test drives on a two-shard Greedy dispatcher (handoffConfig's
// geometry at a 20 s step): heartbeats put the shard-0 worker 1 at (1, 1.4)
// and the shard-1 worker 2 at (1, 2.5), a task owned by shard 1 at (1, 2.1)
// is replicated into shard 0, both shards commit it in one epoch, worker 2
// arrives first and wins, and worker 1's commit is retracted. Four more
// epochs let worker 2 arrive (0.4 km at 5 m/s, 80 s), so every round starts
// from two idle workers.
const epochRoundTicks = 5

func epochDispatcher(ledger bool, plans *int) *Dispatcher {
	cfg := handoffConfig()
	cfg.Step = 20
	cfg.NewLadder = func(int) []assign.Planner {
		return []assign.Planner{counting{&assign.Greedy{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}, plans}}
	}
	if ledger {
		cfg.Obs.LedgerTasks = 1 << 10
	}
	d := New(cfg)
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.4}, Reach: 1, On: 0, Off: 1e9})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.5}, Reach: 1, On: 0, Off: 1e9})
	return d
}

// epochTasks makes the boundary tasks of n rounds, task k published at the
// start of round k.
func epochTasks(n int, step float64) []*core.Task {
	tasks := make([]*core.Task, n)
	for k := range tasks {
		pub := float64(k*epochRoundTicks) * step
		tasks[k] = &core.Task{ID: 100 + k, Loc: geo.Point{X: 1, Y: 2.1}, Pub: pub, Exp: pub + 600, Cell: -1}
	}
	return tasks
}

func epochRound(d *Dispatcher, s *core.Task) {
	d.Heartbeat(1, geo.Point{X: 1, Y: 1.4})
	d.Heartbeat(2, geo.Point{X: 1, Y: 2.5})
	d.SubmitTask(s)
	for i := 0; i < epochRoundTicks; i++ {
		d.Tick()
	}
}

// TestEpochAllocs holds the steady-state live epoch to the allocations its
// callers own. On a warmed two-shard Greedy dispatcher with observability
// off, rounds that replicate a boundary task, plan it in both shards and
// arbitrate the two commits (a ghost loser retracted) allocate nothing
// beyond the two arrays of each plan. With the ledger on, the same rounds
// write each task its whole chain, the arbitration's causes included.
func TestEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const warm, rounds = 8, 64
	plans := 0
	d := epochDispatcher(false, &plans)
	tasks := epochTasks(warm+rounds, d.cfg.Step)
	for _, s := range tasks[:warm] {
		epochRound(d, s)
	}
	before := d.Snapshot()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plans = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range tasks[warm:] {
		epochRound(d, s)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs

	after := d.Snapshot()
	if after.Assigned-before.Assigned != rounds || after.CommitConflicts-before.CommitConflicts != rounds ||
		after.Retractions-before.Retractions != rounds || after.GhostCopies-before.GhostCopies != rounds {
		t.Fatalf("%d rounds: assigned %d, conflicts %d, retractions %d, ghost copies %d; want one of each a round",
			rounds, after.Assigned-before.Assigned, after.CommitConflicts-before.CommitConflicts,
			after.Retractions-before.Retractions, after.GhostCopies-before.GhostCopies)
	}
	if plans != 2*rounds {
		t.Fatalf("%d rounds made %d plans, want two a round (one a shard)", rounds, plans)
	}
	t.Logf("%d rounds: %d allocations, %d plans", rounds, allocs, plans)
	if allocs > uint64(2*plans) {
		t.Fatalf("%d rounds allocated %d objects, want at most the plans' %d", rounds, allocs, 2*plans)
	}

	plans = 0
	d = epochDispatcher(true, &plans)
	for _, s := range tasks[:4] {
		epochRound(d, s)
	}
	for k, s := range tasks[:4] {
		h, ok := d.TaskHistory(s.ID)
		if !ok {
			t.Fatalf("task %d has no history", s.ID)
		}
		epoch := k * epochRoundTicks
		now := float64(epoch) * d.cfg.Step
		want := []obs.Transition{
			{State: obs.Submitted, Epoch: epoch, Now: now, Shard: -1},
			{State: obs.Admitted, Epoch: epoch, Now: now, Shard: 1},
			{State: obs.GhostReplicated, Epoch: epoch, Now: now, Shard: 0},
			{State: obs.Retracted, Epoch: epoch, Now: now, Shard: 0, Worker: 1, Cause: "lost arbitration to worker 2"},
			{State: obs.Assigned, Epoch: epoch, Now: now, Shard: 1, Worker: 2, Cause: "won arbitration (2 commits)"},
		}
		if len(h.Transitions) != len(want) {
			t.Fatalf("task %d chain %+v, want %+v", s.ID, h.Transitions, want)
		}
		for i := range want {
			if h.Transitions[i] != want[i] {
				t.Fatalf("task %d transition %d = %+v, want %+v", s.ID, i, h.Transitions[i], want[i])
			}
		}
	}
}

// TestGovernorObserveAllocs holds a warm Governor.Observe to no allocation:
// the windowed p95 sorts into a buffer the governor keeps, so a governed
// dispatcher pays nothing a shard an epoch for it. The costs run hot and
// cold in turns of 40 epochs, so the rounds demote and promote as well as
// hold.
func TestGovernorObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := NewGovernor(GovernorConfig{Budget: 1, Window: 16}, 3, 3)
	i := 0
	observe := func() {
		for shard := range 3 {
			cost := 0.1
			if (i+10*shard)/40%2 == 0 {
				cost = 2
			}
			g.Observe(shard, cost)
		}
		i++
	}
	for range 64 {
		observe()
	}
	if got := testing.AllocsPerRun(200, observe); got != 0 {
		t.Fatalf("a warm Observe round allocates %v objects, want none", got)
	}
	if d, p := g.Counters(); d == 0 || p == 0 {
		t.Fatalf("%d demotions, %d promotions: the costs move no tier", d, p)
	}
}
