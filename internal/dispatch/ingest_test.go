package dispatch

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wire"
	"repro/internal/workload"
)

// serialIngest is the queue-shape oracle: it takes the epoch lock and pushes
// the event straight onto the pending heap under the next ingest order — the
// order a single producer's events get at drain, with no inbox in between.
func serialIngest(d *Dispatcher, ev Event) {
	d.mu.Lock()
	d.pendLocked(ev, false)
	d.mu.Unlock()
	d.ingested.Add(1)
}

// replayShape replays the scenario trace through the inbox on the chosen
// transport, returning the final snapshot.
func replayShape(sc *workload.Scenario, parallelism int, stream bool, batch int) Metrics {
	d := New(Config{
		Shards:      4,
		Grid:        sc.Grid,
		Step:        2,
		Now:         sc.T0,
		Travel:      travel,
		NewLadder:   oneTier(searchFactory()),
		Parallelism: parallelism,
	})
	return LoadGen{Events: sc.Events(), T1: sc.T1, Stream: stream, Batch: batch}.Run(d).Metrics
}

// TestQueueShapeEquivalence is the queue property test's sequential half: for
// one event stream, ingest through the inbox must produce snapshots
// byte-identical to the serial oracle's at every parallelism level on four
// shards. The (Time, ingest order) pending order decides what the epochs see.
func TestQueueShapeEquivalence(t *testing.T) {
	sc := testScenario(t)
	oracle := New(Config{
		Shards: 4, Grid: sc.Grid, Step: 2, Now: sc.T0,
		Travel: travel, NewLadder: oneTier(searchFactory()), Parallelism: 1,
	})
	for _, ev := range sc.Events() {
		for oracle.Now() < ev.Time {
			oracle.Tick()
		}
		serialIngest(oracle, traceEvent(ev))
	}
	oracle.Advance(sc.T1)
	ref := digest(oracle.Snapshot())
	for _, parallelism := range []int{1, 4, 0} {
		got := digest(replayShape(sc, parallelism, false, 0))
		if got != ref {
			t.Fatalf("parallelism %d: inbox diverged from serial ingest:\n got %s\nwant %s",
				parallelism, got, ref)
		}
	}
}

// TestQueueSpillEquivalence holds a burst to the serial oracle: one worker
// and a 500-event single-cell burst, all ingested before the first epoch,
// must reach the same outcome through the inbox as pushed straight onto the
// pending heap.
func TestQueueSpillEquivalence(t *testing.T) {
	run := func(ingest func(*Dispatcher, Event)) Metrics {
		d := New(Config{
			Shards: 2, Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 3, 3), Step: 1,
			Travel: travel, NewLadder: oneTier(greedyFactory()),
		})
		ingest(d, Event{Time: 0, Kind: KindWorkerOnline,
			Worker: &core.Worker{ID: 1, Loc: geo.Point{X: 3}, Reach: 1, On: 0, Off: 1000}})
		const n = 500
		for i := 0; i < n; i++ {
			ingest(d, Event{Time: 0, Kind: KindTaskSubmit,
				Task: &core.Task{ID: i + 1, Loc: geo.Point{X: 3}, Pub: 0, Exp: 40, Cell: -1}})
		}
		if !d.Quiesce(1000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		return d.Snapshot()
	}
	ref := digest(run(serialIngest))
	if got := digest(run((*Dispatcher).Ingest)); got != ref {
		t.Fatalf("burst diverged:\n got %s\nwant %s", got, ref)
	}
}

// TestConcurrentProducersDeterministic is the concurrent half of the queue
// property test: randomized producer interleavings must not leak into the
// outcome. Each event carries a globally unique time, so the pending heap's
// (Time, seq) order is a pure function of the trace regardless of which
// producer's push lands first — and the post-Quiesce snapshot must equal the
// serial oracle's ingest of the same stream, run after run.
func TestConcurrentProducersDeterministic(t *testing.T) {
	sc := testScenario(t)
	base := sc.Events()
	events := make([]workload.Event, len(base))
	copy(events, base)
	for i := range events {
		// Strictly increasing jitter keeps the trace sorted while making
		// every instant unique; 1e-6 is far below the epoch step, so epoch
		// bucketing is unchanged.
		events[i].Time += float64(i) * 1e-6
	}
	run := func(producers int) Metrics {
		d := New(Config{
			Shards: 4, Grid: sc.Grid, Step: 2, Now: sc.T0,
			Travel: travel, NewLadder: oneTier(searchFactory()),
		})
		if producers == 0 {
			for _, ev := range events {
				serialIngest(d, traceEvent(ev))
			}
		} else {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := p; i < len(events); i += producers {
						d.Ingest(traceEvent(events[i]))
					}
				}(p)
			}
			wg.Wait()
		}
		if !d.Quiesce(10000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		return d.Snapshot()
	}
	ref := digest(run(0))
	for run2 := 0; run2 < 2; run2++ {
		for _, producers := range []int{2, 4, 8} {
			got := digest(run(producers))
			if got != ref {
				t.Fatalf("run %d, %d producers: inbox diverged from serial ingest:\n got %s\nwant %s",
					run2, producers, got, ref)
			}
		}
	}
}

// TestTransportEquivalence pins determinism across transports: the batched
// binary-stream replay (encode → frame → decode → IngestBatch) must produce
// snapshots byte-identical to the per-event path at every parallelism level
// and batch size, including single-event frames.
func TestTransportEquivalence(t *testing.T) {
	sc := testScenario(t)
	ref := digest(replayShape(sc, 1, false, 0))
	for _, parallelism := range []int{1, 4, 0} {
		for _, batch := range []int{1, 256} {
			got := digest(replayShape(sc, parallelism, true, batch))
			if got != ref {
				t.Fatalf("parallelism %d batch %d: stream transport diverged:\n got %s\nwant %s",
					parallelism, batch, got, ref)
			}
		}
	}
}

// TestLoadGenStreamSustains25k is the raised throughput acceptance bar: the
// binary-stream transport must sustain at least 25k events per second on the
// DiDi-scaled trace, planning included — 25x the per-event floor pinned by
// TestLoadGenSustainsDiDiRate when the ingest path was one HTTP/JSON request
// per event.
func TestLoadGenStreamSustains25k(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	if raceEnabled {
		t.Skip("wall-clock throughput floor is meaningless under the race detector")
	}
	cfg := workload.DiDi().Scaled(0.1)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	d := New(Config{
		Shards:    4,
		Grid:      sc.Grid,
		Step:      2,
		Now:       sc.T0,
		Travel:    travel,
		NewLadder: oneTier(greedyFactory()),
	})
	res := LoadGen{Events: sc.Events(), T1: sc.T1, Stream: true}.Run(d)
	if res.Events < 500 {
		t.Fatalf("trace too small to be meaningful: %d events", res.Events)
	}
	if res.AchievedRate < 25000 {
		t.Fatalf("achieved %.0f events/sec over %d events (%v wall), want ≥ 25000",
			res.AchievedRate, res.Events, res.Wall)
	}
	if res.Metrics.Assigned == 0 {
		t.Fatal("load run assigned nothing; harness is not exercising planning")
	}
}

// TestIngestBatchRejectsNonFinite: IngestBatch is exported and validates like
// the HTTP endpoints, so a NaN or infinite time, location, reach or window
// never reaches the queue. A task with a NaN deadline would otherwise be
// admitted and never expire, and Quiesce could not drain the dispatcher.
func TestIngestBatchRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	valid := []wire.Event{
		{Kind: wire.WorkerOnline, ID: 1, X: 1, Y: 1, Reach: 1, On: 0, Off: 100},
		{Kind: wire.TaskSubmit, ID: 1, X: 1, Y: 1, Pub: 0, Exp: 100},
		{Kind: wire.Position, ID: 1, X: 1, Y: 1},
		{Kind: wire.WorkerOffline, ID: 1},
		{Kind: wire.TaskCancel, ID: 1},
	}
	var bad []wire.Event
	poison := func(i int, set func(*wire.Event)) {
		ev := valid[i]
		set(&ev)
		bad = append(bad, ev)
	}
	for _, v := range []float64{nan, inf, -inf} {
		for i := range valid {
			poison(i, func(ev *wire.Event) { ev.Time = v })
		}
		for _, i := range []int{0, 1, 2} {
			poison(i, func(ev *wire.Event) { ev.X = v })
			poison(i, func(ev *wire.Event) { ev.Y = v })
		}
		poison(0, func(ev *wire.Event) { ev.Reach = v })
		poison(0, func(ev *wire.Event) { ev.On = v })
		poison(0, func(ev *wire.Event) { ev.Off = v })
		poison(1, func(ev *wire.Event) { ev.Pub = v })
		poison(1, func(ev *wire.Event) { ev.Exp = v })
	}
	d := New(Config{Travel: travel, NewLadder: oneTier(greedyFactory())})
	for _, ev := range bad {
		if acc, rej := d.IngestBatch([]wire.Event{ev}); acc != 0 || rej != 1 {
			t.Errorf("%s event %+v: accepted %d, rejected %d", ev.Kind, ev, acc, rej)
		}
	}
	if acc, rej := d.IngestBatch(valid[:2]); acc != 2 || rej != 0 {
		t.Fatalf("valid events: accepted %d, rejected %d", acc, rej)
	}
	if !d.Quiesce(200) {
		t.Fatalf("dispatcher did not drain: %+v", d.Snapshot())
	}
	if m := d.Snapshot(); m.Assigned != 1 || m.RoutedTasks != 0 || m.Ingested != 2 {
		t.Fatalf("assigned/routed/ingested = %d/%d/%d, want 1/0/2", m.Assigned, m.RoutedTasks, m.Ingested)
	}
}

// TestIngestDropsNonFiniteTime: Ingest is exported and accepts any Time. An
// event whose Time is NaN orders neither before nor after anything, so on the
// pending heap it would settle at the root and block every event behind it;
// ±Inf could never come due, or would keep Quiesce from ever draining. Ingest
// drops all three and counts them Unroutable, and the valid events after
// them plan as if they had never been sent.
func TestIngestDropsNonFiniteTime(t *testing.T) {
	d := New(Config{Step: 1, Travel: travel, NewLadder: oneTier(greedyFactory())})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d.Ingest(Event{Time: bad, Kind: KindTaskCancel, ID: 1})
	}
	d.Ingest(Event{Time: 0, Kind: KindWorkerOnline,
		Worker: &core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1}, Reach: 1, On: 0, Off: 100}})
	d.Ingest(Event{Time: 0, Kind: KindTaskSubmit,
		Task: &core.Task{ID: 1, Loc: geo.Point{X: 1, Y: 1}, Pub: 0, Exp: 50, Cell: -1}})
	d.Advance(60)
	m := d.Snapshot()
	if m.Assigned != 1 || m.Applied != 2 || m.Ingested != 2 || m.Unroutable != 3 || m.QueueDepth != 0 {
		t.Fatalf("assigned/applied/ingested/unroutable/queue = %d/%d/%d/%d/%d, want 1/2/2/3/0",
			m.Assigned, m.Applied, m.Ingested, m.Unroutable, m.QueueDepth)
	}
	if !d.Quiesce(50) {
		t.Fatalf("dispatcher did not drain: %+v", d.Snapshot())
	}
}

// TestIngestBatchExtremeIDs: an id-only wire event may carry any int64 id,
// and IngestBatch accepts it. With three shards, math.MinInt64 is an id
// whose absolute value overflows and whose remainder is negative; both
// events must reach the epoch and be counted Unroutable, not crash ingest.
func TestIngestBatchExtremeIDs(t *testing.T) {
	d := New(Config{
		Shards: 3, Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 3, 3), Step: 1,
		Travel: travel, NewLadder: oneTier(greedyFactory()),
	})
	acc, rej := d.IngestBatch([]wire.Event{
		{Kind: wire.WorkerOffline, ID: math.MinInt64},
		{Kind: wire.TaskCancel, ID: math.MinInt64},
	})
	if acc != 2 || rej != 0 {
		t.Fatalf("accepted %d, rejected %d, want 2/0", acc, rej)
	}
	d.Tick()
	if m := d.Snapshot(); m.Unroutable != 2 || m.Applied != 0 || m.QueueDepth != 0 {
		t.Fatalf("unroutable/applied/queue = %d/%d/%d, want 2/0/0", m.Unroutable, m.Applied, m.QueueDepth)
	}
}
