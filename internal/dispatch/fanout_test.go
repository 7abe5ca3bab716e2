package dispatch

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/workload"
)

// walls is a probe slice holding only previous Step walls, in µs.
func walls(us ...int) []shardProbe {
	p := make([]shardProbe, len(us))
	for i, w := range us {
		p[i].wall = time.Duration(w) * time.Microsecond
	}
	return p
}

// TestShardFanOutDecision holds fanOut, the epoch's shard fan-out, as a pure
// function of the shards' previous walls, the setting and GOMAXPROCS.
func TestShardFanOutDecision(t *testing.T) {
	for _, tc := range []struct {
		name               string
		probe              []shardProbe
		parallelism, procs int
		grain              int
		fan, budget        int
	}{
		{"one shard never fans out", walls(50_000), 0, 4, shardGrain, 1, 4},
		{"one shard under the hook", walls(50_000), 4, 4, 0, 1, 4},
		{"quiet epoch runs inline with the whole budget", walls(4, 5), 0, 2, shardGrain, 1, 2},
		{"quiet epoch at an explicit setting", walls(4, 5, 3, 6), 4, 2, shardGrain, 1, 4},
		{"one heavy shard beside a quiet one stays inline", walls(9_000, 30), 0, 2, shardGrain, 1, 2},
		{"two heavy shards fan out at total/2", walls(1_000, 1_000), 0, 4, shardGrain, 2, 2},
		{"two heavy shards at an explicit setting", walls(1_000, 1_000), 4, 2, shardGrain, 2, 2},
		{"overlap one µs short of two grains", walls(2*shardGrain-1, 5_000), 0, 2, shardGrain, 1, 2},
		{"overlap of two grains", walls(2*shardGrain, 5_000), 0, 2, shardGrain, 2, 1},
		{"four heavy shards share two CPUs", walls(800, 900, 1_000, 700), 0, 2, shardGrain, 2, 1},
		{"never more goroutines than shards", walls(5_000, 5_000), 0, 8, shardGrain, 2, 4},
		{"Parallelism 1 never fans out", walls(1_000, 1_000), 1, 4, shardGrain, 1, 1},
		{"Parallelism 1 under the hook", walls(0, 0, 0, 0), 1, 4, 0, 1, 1},
		{"a negative setting is serial", walls(1_000, 1_000), -3, 4, shardGrain, 1, 1},
		{"first epoch has no walls and runs inline", walls(0, 0, 0, 0), 4, 4, shardGrain, 1, 4},
		{"the hook fans the first epoch out", walls(0, 0, 0, 0), 0, 4, 0, 4, 1},
		{"the hook at two CPUs", walls(0, 0, 0, 0), 2, 4, 0, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fan, budget := fanOut(tc.probe, tc.parallelism, tc.procs, tc.grain)
			if fan != tc.fan || budget != tc.budget {
				t.Fatalf("fanOut = (%d, %d), want (%d, %d)", fan, budget, tc.fan, tc.budget)
			}
		})
	}
}

// churnScript replays the scenario trace with every fifth task cancelled 30 s
// after its submit and every fourth worker taken offline after 300 s, then
// quiesces so that every ledger chain is terminal.
func churnScript(sc *workload.Scenario) func(*Dispatcher) {
	return func(d *Dispatcher) {
		for _, ev := range sc.Events() {
			for d.Now() < ev.Time {
				d.Tick()
			}
			d.Ingest(traceEvent(ev))
			switch {
			case ev.Kind == workload.TaskSubmit && ev.Task.ID%5 == 0:
				d.Ingest(Event{Time: ev.Time + 30, Kind: KindTaskCancel, ID: ev.Task.ID})
			case ev.Kind == workload.WorkerOnline && ev.Worker.ID%4 == 0:
				d.Ingest(Event{Time: ev.Time + 300, Kind: KindWorkerOffline, ID: ev.Worker.ID})
			}
		}
		d.Advance(sc.T1)
		d.Quiesce(10000)
	}
}

// TestShardFanOutMatchesInline drives the par.Do branch of stepLocked, which
// the small instants of the other tests never reach: with the grain hooked to
// 0 every multi-shard epoch fans out, and the snapshot and every ledger chain
// must equal the inline run's at Parallelism 1, 2 and 4, on 1 and 4 shards.
// Each planner must hold its share of the budget: the whole setting inline,
// setting/fan-out when the shards share the CPUs.
func TestShardFanOutMatchesInline(t *testing.T) {
	sc := testScenario(t)
	run := func(shards, parallelism int, hook bool) (outcome, ledger string, d *Dispatcher) {
		d = New(Config{
			Shards: shards, Grid: sc.Grid, Step: 2, Now: sc.T0, Parallelism: parallelism,
			NewLadder: oneTier(searchFactory()), Obs: ObsConfig{LedgerTasks: 1 << 14},
		})
		if hook {
			d.grain = 0
		}
		churnScript(sc)(d)
		d.mu.Lock()
		chains := d.ob.ledger.Recent(0)
		d.mu.Unlock()
		raw, err := json.Marshal(chains)
		if err != nil {
			t.Fatal(err)
		}
		return outcomeOf(d.Snapshot()), string(raw), d
	}
	for _, shards := range []int{1, 4} {
		wantOutcome, wantLedger, ref := run(shards, 1, false)
		if m := ref.Snapshot(); m.Assigned == 0 || m.Cancelled == 0 || m.Expired == 0 || (shards > 1 && m.GhostCopies == 0) {
			t.Fatalf("%d shards: the script does not exercise its path: %s", shards, digest(m))
		}
		for _, parallelism := range []int{1, 2, 4} {
			outcome, ledger, d := run(shards, parallelism, true)
			if outcome != wantOutcome {
				t.Fatalf("%d shards, parallelism %d: fanned-out snapshot diverged from inline:\n got %s\nwant %s", shards, parallelism, outcome, wantOutcome)
			}
			if ledger != wantLedger {
				t.Fatalf("%d shards, parallelism %d: fanned-out ledger diverged from inline", shards, parallelism)
			}
			fan := min(parallelism, shards)
			wantFanned := int64(0)
			if fan > 1 {
				wantFanned = int64(d.Snapshot().Epochs)
			}
			if got := d.FannedEpochs(); got != wantFanned {
				t.Fatalf("%d shards, parallelism %d: %d epochs fanned out, want %d", shards, parallelism, got, wantFanned)
			}
			for i, p := range d.tiered {
				if got := p.ladder[0].(checked).Planner.(*assign.Search).Opts.Parallelism; got != parallelism/fan {
					t.Fatalf("%d shards, parallelism %d: shard %d planner budget %d, want %d", shards, parallelism, i, got, parallelism/fan)
				}
			}
		}
	}
}

// TestShardFanOutBudgetFollows steers stepLocked's decision through the
// walls it reads — each Tick decides from the probe before its Steps
// overwrite it — and holds every planner's budget to the fan-out as it moves
// inline → fanned → inline.
func TestShardFanOutBudgetFollows(t *testing.T) {
	sc := testScenario(t)
	d := New(Config{Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0, Parallelism: 2, NewLadder: oneTier(searchFactory())})
	for i, tc := range []struct {
		wallUS              int
		fanned, budget, fan int
	}{
		{0, 0, 2, 1},              // first epoch: no walls, inline, the whole budget
		{2 * shardGrain, 1, 1, 2}, // both shards heavy: fanned, half each
		{2 * shardGrain, 2, 1, 2}, // still fanned: the budget stays
		{shardGrain / 4, 2, 2, 1}, // quiet again: inline, the whole budget back
	} {
		for s := range d.probe {
			d.probe[s].wall = time.Duration(tc.wallUS) * time.Microsecond
		}
		d.Tick()
		if got := d.FannedEpochs(); got != int64(tc.fanned) {
			t.Fatalf("epoch %d: %d epochs fanned out, want %d", i, got, tc.fanned)
		}
		if d.fan != tc.fan {
			t.Fatalf("epoch %d: fan-out %d, want %d", i, d.fan, tc.fan)
		}
		for s, p := range d.tiered {
			if got := p.ladder[0].(checked).Planner.(*assign.Search).Opts.Parallelism; got != tc.budget {
				t.Fatalf("epoch %d: shard %d planner budget %d, want %d", i, s, got, tc.budget)
			}
		}
	}
}
