package dispatch

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

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

// neverFan is a grain no overlap reaches: every epoch steps its shards
// inline, the reference each fanned-out run is held to.
const neverFan = math.MaxInt

// grains are the fan-out grains the determinism tests replay at: inline (the
// reference), the default, and the hook that fans every multi-shard epoch out
// on up to GOMAXPROCS goroutines.
var grains = []int{neverFan, shardGrain, 0}

// withGrain sets d's fan-out grain and returns d.
func withGrain(d *Dispatcher, grain int) *Dispatcher {
	d.grain = grain
	return d
}

// withProcs sets GOMAXPROCS to n; the test's cleanup restores the setting it
// found, however often it is called.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestShardFanOutDecision holds fanOut, the epoch's shard fan-out, as a pure
// function of the shards' previous walls, GOMAXPROCS and the grain.
func TestShardFanOutDecision(t *testing.T) {
	for _, tc := range []struct {
		name         string
		probe        []shardProbe
		procs, grain int
		fan          int
	}{
		{"one shard never fans out", walls(50_000), 4, shardGrain, 1},
		{"one shard under the hook", walls(50_000), 4, 0, 1},
		{"quiet epoch runs inline with the whole budget", walls(4, 5), 2, shardGrain, 1},
		{"quiet epoch at an explicit setting", walls(4, 5, 3, 6), 2, shardGrain, 1},
		{"one heavy shard beside a quiet one stays inline", walls(9_000, 30), 2, shardGrain, 1},
		{"two heavy shards fan out at total/2", walls(1_000, 1_000), 4, shardGrain, 2},
		{"two heavy shards at an explicit setting", walls(1_000, 1_000), 2, shardGrain, 2},
		{"overlap below one grain", walls(shardGrain-1, 5_000), 4, shardGrain, 1},
		{"overlap of one grain stays inline", walls(shardGrain, 5_000), 4, shardGrain, 1},
		{"overlap one µs short of two grains", walls(2*shardGrain-1, 5_000), 2, shardGrain, 1},
		{"overlap of two grains", walls(2*shardGrain, 5_000), 2, shardGrain, 2},
		{"each goroutine past the first needs a grain", walls(3*shardGrain, 5_000, 1, 1), 4, shardGrain, 3},
		{"four heavy shards share two CPUs", walls(800, 900, 1_000, 700), 2, shardGrain, 2},
		{"GOMAXPROCS bounds a crowd", walls(5_000, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000), 4, shardGrain, 4},
		{"never more goroutines than shards", walls(5_000, 5_000), 8, shardGrain, 2},
		{"Parallelism 1 never fans out", walls(1_000, 1_000), 1, shardGrain, 1},
		{"Parallelism 1 under the hook", walls(0, 0, 0, 0), 1, 0, 1},
		{"a negative setting is serial", walls(1_000, 1_000), -3, shardGrain, 1},
		{"no shards is the caller's goroutine", nil, 4, shardGrain, 1},
		{"no shards under the hook", nil, 4, 0, 1},
		{"first epoch has no walls and runs inline", walls(0, 0, 0, 0), 4, shardGrain, 1},
		{"the hook fans the first epoch out", walls(0, 0, 0, 0), 4, 0, 4},
		{"the hook at two CPUs", walls(0, 0, 0, 0), 2, 0, 2},
		{"a grain no overlap reaches", walls(1<<30, 1<<30), 4, neverFan, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if fan := fanOut(tc.probe, tc.procs, tc.grain); fan != tc.fan {
				t.Fatalf("fanOut = %d, want %d", fan, tc.fan)
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

// TestShardFanOutMatchesInline drives the fanned branch of stepLocked, which
// the small instants of the other tests never reach: with the grain hooked to
// 0 every multi-shard epoch fans out on up to GOMAXPROCS goroutines, and the
// snapshot and every ledger chain must equal the inline run's at GOMAXPROCS
// 1, 2 and 4, on 1 and 4 shards.
func TestShardFanOutMatchesInline(t *testing.T) {
	sc := testScenario(t)
	run := func(shards, grain int) (outcome, ledger string, d *Dispatcher) {
		d = withGrain(New(Config{
			Shards: shards, Grid: sc.Grid, Step: 2, Now: sc.T0,
			NewLadder: oneTier(searchFactory()), Obs: ObsConfig{LedgerTasks: 1 << 14},
		}), grain)
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
		wantOutcome, wantLedger, ref := run(shards, neverFan)
		if m := ref.Snapshot(); m.Assigned == 0 || m.Cancelled == 0 || m.Expired == 0 || (shards > 1 && m.GhostCopies == 0) {
			t.Fatalf("%d shards: the script does not exercise its path: %s", shards, digest(m))
		}
		if got := ref.FannedEpochs(); got != 0 {
			t.Fatalf("%d shards: %d epochs fanned out at a grain no overlap reaches", shards, got)
		}
		for _, procs := range []int{1, 2, 4} {
			withProcs(t, procs)
			outcome, ledger, d := run(shards, 0)
			if outcome != wantOutcome {
				t.Fatalf("%d shards, GOMAXPROCS %d: fanned-out snapshot diverged from inline:\n got %s\nwant %s", shards, procs, outcome, wantOutcome)
			}
			if ledger != wantLedger {
				t.Fatalf("%d shards, GOMAXPROCS %d: fanned-out ledger diverged from inline", shards, procs)
			}
			wantFanned := int64(0)
			if min(procs, shards) > 1 {
				wantFanned = int64(d.Snapshot().Epochs)
			}
			if got := d.FannedEpochs(); got != wantFanned {
				t.Fatalf("%d shards, GOMAXPROCS %d: %d epochs fanned out, want %d", shards, procs, got, wantFanned)
			}
		}
	}
}

// TestShardFanOutBudgetFollows steers stepLocked's decision through the
// walls it reads — each Tick decides from the probe before its Steps
// overwrite it — and holds how much of the goroutine budget (GOMAXPROCS 2)
// an epoch takes to the walls as it moves inline → fanned → inline.
func TestShardFanOutBudgetFollows(t *testing.T) {
	withProcs(t, 2)
	sc := testScenario(t)
	d := New(Config{Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0, NewLadder: oneTier(searchFactory())})
	for i, tc := range []struct {
		wallUS      int
		fanned, fan int
	}{
		{0, 0, 1},              // first epoch: no walls, inline
		{2 * shardGrain, 1, 2}, // both shards heavy: fanned
		{2 * shardGrain, 2, 2}, // still fanned
		{shardGrain / 4, 2, 1}, // quiet again: inline
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
	}
}
