package dispatch

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// serialIngest is the queue-shape oracle: it takes the epoch lock and pushes
// the event straight onto the pending heap under the next ingest order — the
// order a single producer's events get at drain, with no inbox in between and
// no due batch: every event, due or not, takes the heap path.
func serialIngest(d *Dispatcher, ev Event) {
	d.mu.Lock()
	d.pendLocked(ev, false)
	d.mu.Unlock()
	d.ingested.Add(1)
}

// traceEvent converts one trace event to a dispatcher ingest event.
func traceEvent(ev workload.Event) Event {
	if ev.Kind == workload.WorkerOnline {
		return Event{Time: ev.Time, Kind: KindWorkerOnline, Worker: ev.Worker}
	}
	return Event{Time: ev.Time, Kind: KindTaskSubmit, Task: ev.Task}
}

// ingestEach is the per-event oracle's transport: one Ingest call per trace
// event.
func ingestEach(d *Dispatcher, ev workload.Event) { d.Ingest(traceEvent(ev)) }

// batchEach hands IngestBatch a one-event batch: the smallest frame a
// POST /v1/stream session or LoadGen can carry.
func batchEach(t *testing.T) func(*Dispatcher, workload.Event) {
	return func(d *Dispatcher, ev workload.Event) {
		if _, rej := d.IngestBatch([]wire.Event{wireEvent(ev)}); rej != 0 {
			t.Fatalf("trace event %+v rejected", ev)
		}
	}
}

// replayEach replays a trace on LoadGen's schedule, one event at a time:
// every epoch strictly before an event's instant runs first, then ingest
// hands the event over; after the last event the clock advances to t1.
func replayEach(d *Dispatcher, events []workload.Event, t1 float64, ingest func(*Dispatcher, workload.Event)) Metrics {
	for _, ev := range events {
		for d.Now() < ev.Time {
			d.Tick()
		}
		ingest(d, ev)
	}
	d.Advance(t1)
	return d.Snapshot()
}

// shapeDispatcher is the four-shard dispatcher the queue-shape tests replay
// the scenario trace into, at the given fan-out grain.
func shapeDispatcher(sc *workload.Scenario, grain int) *Dispatcher {
	return withGrain(New(Config{
		Shards:    4,
		Grid:      sc.Grid,
		Step:      2,
		Now:       sc.T0,
		NewLadder: oneTier(searchFactory()),
	}), grain)
}

// TestQueueShapeEquivalence is the queue property test's sequential half: for
// one event stream, ingest through the inbox must produce snapshots
// byte-identical to the serial oracle's on four shards, inline and fanned
// out. The (Time, ingest order) order admission applies events in decides
// what the epochs see.
func TestQueueShapeEquivalence(t *testing.T) {
	sc := testScenario(t)
	oracle := shapeDispatcher(sc, neverFan)
	for _, ev := range sc.Events() {
		for oracle.Now() < ev.Time {
			oracle.Tick()
		}
		serialIngest(oracle, traceEvent(ev))
	}
	oracle.Advance(sc.T1)
	ref := digest(oracle.Snapshot())
	for _, grain := range grains {
		got := digest(replayEach(shapeDispatcher(sc, grain), sc.Events(), sc.T1, ingestEach))
		if got != ref {
			t.Fatalf("grain %d: inbox diverged from serial ingest:\n got %s\nwant %s",
				grain, got, ref)
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
			NewLadder: oneTier(greedyFactory()),
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
// outcome. Each event carries a globally unique time, so the (Time, seq)
// order admission applies events in is a pure function of the trace
// regardless of which producer's push lands first — and the post-Quiesce
// snapshot must equal the serial oracle's ingest of the same stream, run
// after run.
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
			NewLadder: oneTier(searchFactory()),
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

// TestTransportEquivalence pins determinism across transports: LoadGen's
// batched binary-stream replay (encode → frame → decode → IngestBatch) and a
// replay handing IngestBatch one event at a time must produce snapshots
// byte-identical to the per-event Ingest oracle, inline and fanned out.
func TestTransportEquivalence(t *testing.T) {
	sc := testScenario(t)
	ref := digest(replayEach(shapeDispatcher(sc, neverFan), sc.Events(), sc.T1, ingestEach))
	for _, grain := range grains {
		for _, tr := range []struct {
			name string
			run  func(*Dispatcher) Metrics
		}{
			{"per-event Ingest", func(d *Dispatcher) Metrics {
				return replayEach(d, sc.Events(), sc.T1, ingestEach)
			}},
			{"one-event batches", func(d *Dispatcher) Metrics {
				return replayEach(d, sc.Events(), sc.T1, batchEach(t))
			}},
			{"LoadGen", func(d *Dispatcher) Metrics {
				return LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d).Metrics
			}},
		} {
			if got := digest(tr.run(shapeDispatcher(sc, grain))); got != ref {
				t.Fatalf("grain %d, %s: diverged from per-event Ingest:\n got %s\nwant %s",
					grain, tr.name, got, ref)
			}
		}
	}
}

// TestAdmissionOrderMatchesHeap is the differential test of the split queue:
// the drain stage hands due events to admission as a batch and only
// future-dated ones onto the pending heap, and admission must apply them in
// exactly the order the heap alone gives. The oracle is serialIngest, which
// pushes every event onto the heap. Randomized streams mix due, past-dated,
// future-dated and tied-Time events in each frame, with cancels, offlines and
// heartbeats aimed at earlier ids; a per-epoch submit cap defers, a small pool
// cap displaces, and a Quiesce between ticks drains outside an epoch. The
// snapshot, every ledger chain and the admission span's count in every epoch
// must be equal, on one shard and on three.
func TestAdmissionOrderMatchesHeap(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				want := orderRun(t, shards, seed, serialIngest)
				got := orderRun(t, shards, seed, (*Dispatcher).Ingest)
				if got.outcome != want.outcome {
					t.Fatalf("snapshot diverged from heap-only ingest:\n got %s\nwant %s", got.outcome, want.outcome)
				}
				if got.ledger != want.ledger {
					t.Fatalf("ledger diverged from heap-only ingest:\n got %s\nwant %s", got.ledger, want.ledger)
				}
				if !slices.Equal(got.admitted, want.admitted) {
					t.Fatalf("admission span counts diverged from heap-only ingest:\n got %v\nwant %v", got.admitted, want.admitted)
				}
			})
		}
	}
}

// orderResult is what TestAdmissionOrderMatchesHeap compares: the snapshot
// with wall-clock fields zeroed, the ledger chains, and the admission span's
// count per epoch.
type orderResult struct {
	outcome, ledger string
	admitted        []int
}

// orderRun drives one dispatcher through the seed's randomized stream, each
// event handed over by ingest. The stream depends only on the seed and the
// dispatcher's clock, so the oracle and the inbox see the same events.
func orderRun(t *testing.T, shards int, seed int64, ingest func(*Dispatcher, Event)) orderResult {
	t.Helper()
	const step = 10
	d := New(Config{
		Shards: shards, Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 3, 3), Step: step,
		NewLadder: oneTier(greedyFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 8, MaxSubmitsPerEpoch: 3},
		Obs:       ObsConfig{Spans: 1 << 10, LedgerTasks: 1 << 12},
	})
	rng := rand.New(rand.NewSource(seed))
	loc := func() geo.Point { return geo.Point{X: 6 * rng.Float64(), Y: 6 * rng.Float64()} }
	workers, tasks, last := 0, 0, 0.0
	for epoch := 0; epoch < 80; epoch++ {
		now := d.Now()
		for n := rng.Intn(14); n > 0; n-- {
			at := now
			switch r := rng.Intn(10); {
			case r < 2: // past-dated, within the last few epochs
				at = now - step*(float64(rng.Intn(3))+rng.Float64())
			case r < 4: // future-dated, on an epoch instant or between two
				at = now + step*float64(1+rng.Intn(3))
				if rng.Intn(2) == 0 {
					at -= step / 2
				}
			case r < 6: // tied with the previous event
				at = last
			}
			last = at
			ev := Event{Time: at}
			switch k := rng.Intn(10); {
			case k < 2 || workers == 0:
				workers++
				ev.Kind, ev.Worker = KindWorkerOnline,
					&core.Worker{ID: workers, Loc: loc(), Reach: 0.5 + rng.Float64(), On: at, Off: at + step*(20+20*rng.Float64())}
			case k < 6 || tasks == 0:
				tasks++
				ev.Kind, ev.Task = KindTaskSubmit,
					&core.Task{ID: tasks, Loc: loc(), Pub: at, Exp: at + step*(1+30*rng.Float64()), Cell: -1}
			case k < 8: // often the task just submitted, tied or not
				ev.Kind, ev.ID = KindTaskCancel, tasks-rng.Intn(min(tasks, 3))
			case k < 9:
				ev.Kind, ev.ID = KindWorkerOffline, 1+rng.Intn(workers)
			default:
				ev.Kind, ev.ID, ev.Loc = KindPosition, 1+rng.Intn(workers), loc()
			}
			ingest(d, ev)
		}
		switch rng.Intn(8) {
		case 0:
			d.Quiesce(0) // drains outside an epoch; the tick appends after
			d.Tick()
		case 1:
			d.Quiesce(1)
		default:
			d.Tick()
		}
	}
	if !d.Quiesce(200) {
		t.Fatal("dispatcher failed to quiesce")
	}
	m := d.Snapshot()
	if m.Deferred == 0 || m.Shed == 0 || m.Cancelled == 0 || m.Assigned == 0 {
		t.Fatalf("stream lost its coverage: deferred %d shed %d cancelled %d assigned %d",
			m.Deferred, m.Shed, m.Cancelled, m.Assigned)
	}
	d.mu.Lock()
	chains := d.ob.ledger.Recent(0)
	d.mu.Unlock()
	displaced := false
	for _, h := range chains {
		displaced = displaced || slices.Contains(chainStates(h), obs.Displaced)
	}
	if !displaced {
		t.Fatal("stream lost its coverage: no task was displaced")
	}
	raw, err := json.Marshal(chains)
	if err != nil {
		t.Fatal(err)
	}
	var admitted []int
	for _, es := range d.SpanTrace(0) {
		for _, sp := range es.Spans {
			if sp.Name == "admission" {
				admitted = append(admitted, sp.N)
			}
		}
	}
	return orderResult{outcome: outcomeOf(m), ledger: string(raw), admitted: admitted}
}

// TestLoadGenStreamSustains25k is the raised throughput acceptance bar:
// LoadGen's binary-stream replay must sustain at least 25k events per second
// on the DiDi-scaled trace, planning included — 25x the floor
// TestLoadGenSustainsDiDiRate pinned when the ingest path was one HTTP/JSON
// request per event.
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
		NewLadder: oneTier(greedyFactory()),
	})
	res := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
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

// validWire is one well-formed wire event of each kind.
var validWire = []wire.Event{
	{Kind: wire.WorkerOnline, ID: 1, X: 1, Y: 1, Reach: 1, On: 0, Off: 100},
	{Kind: wire.TaskSubmit, ID: 1, X: 1, Y: 1, Pub: 0, Exp: 100},
	{Kind: wire.Position, ID: 1, X: 1, Y: 1},
	{Kind: wire.WorkerOffline, ID: 1},
	{Kind: wire.TaskCancel, ID: 1},
}

// poison copies validWire[i] and breaks it with set.
func poison(i int, set func(*wire.Event)) wire.Event {
	ev := validWire[i]
	set(&ev)
	return ev
}

// poisonNonFinite puts NaN, +Inf and −Inf into every float of validWire's
// events in turn.
func poisonNonFinite() []wire.Event {
	var bad []wire.Event
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range validWire {
			bad = append(bad, poison(i, func(ev *wire.Event) { ev.Time = v }))
		}
		for _, i := range []int{0, 1, 2} {
			bad = append(bad,
				poison(i, func(ev *wire.Event) { ev.X = v }),
				poison(i, func(ev *wire.Event) { ev.Y = v }))
		}
		bad = append(bad,
			poison(0, func(ev *wire.Event) { ev.Reach = v }),
			poison(0, func(ev *wire.Event) { ev.On = v }),
			poison(0, func(ev *wire.Event) { ev.Off = v }),
			poison(1, func(ev *wire.Event) { ev.Pub = v }),
			poison(1, func(ev *wire.Event) { ev.Exp = v }))
	}
	return bad
}

// poisonStructural breaks the event rule's other clauses with finite values:
// worker id ≤ 0, reach ≤ 0, Off ≤ On, task id < 0 and Exp ≤ Pub.
func poisonStructural() []wire.Event {
	return []wire.Event{
		poison(0, func(ev *wire.Event) { ev.ID = 0 }),
		poison(0, func(ev *wire.Event) { ev.ID = -3 }),
		poison(0, func(ev *wire.Event) { ev.Reach = 0 }),
		poison(0, func(ev *wire.Event) { ev.Reach = -1 }),
		poison(0, func(ev *wire.Event) { ev.Off = ev.On }),
		poison(0, func(ev *wire.Event) { ev.On, ev.Off = 50, 10 }),
		poison(1, func(ev *wire.Event) { ev.ID = -5 }),
		poison(1, func(ev *wire.Event) { ev.Exp = ev.Pub }),
		poison(1, func(ev *wire.Event) { ev.Pub, ev.Exp = 50, 10 }),
	}
}

// materialize builds the dispatcher event a wire event describes, as
// IngestBatch does, with nothing checked.
func materialize(ev wire.Event) Event {
	in := Event{Time: ev.Time, ID: int(ev.ID), Loc: geo.Point{X: ev.X, Y: ev.Y}}
	switch ev.Kind {
	case wire.WorkerOnline:
		in.Kind, in.Worker = KindWorkerOnline, &core.Worker{
			ID: int(ev.ID), Loc: in.Loc, Reach: ev.Reach, On: ev.On, Off: ev.Off}
	case wire.TaskSubmit:
		in.Kind, in.Task = KindTaskSubmit, &core.Task{
			ID: int(ev.ID), Loc: in.Loc, Pub: ev.Pub, Exp: ev.Exp, Cell: -1}
	case wire.WorkerOffline:
		in.Kind = KindWorkerOffline
	case wire.TaskCancel:
		in.Kind = KindTaskCancel
	case wire.Position:
		in.Kind = KindPosition
	}
	return in
}

// TestIngestBatchRejectsNonFinite: IngestBatch is exported and validates like
// the HTTP endpoints, so a NaN or infinite time, location, reach or window
// never reaches the queue. A task with a NaN deadline would otherwise be
// admitted and never expire, and Quiesce could not drain the dispatcher.
func TestIngestBatchRejectsNonFinite(t *testing.T) {
	d := New(Config{NewLadder: oneTier(greedyFactory())})
	for _, ev := range poisonNonFinite() {
		if acc, rej := d.IngestBatch([]wire.Event{ev}); acc != 0 || rej != 1 {
			t.Errorf("%s event %+v: accepted %d, rejected %d", ev.Kind, ev, acc, rej)
		}
	}
	if acc, rej := d.IngestBatch(validWire[:2]); acc != 2 || rej != 0 {
		t.Fatalf("valid events: accepted %d, rejected %d", acc, rej)
	}
	if !d.Quiesce(200) {
		t.Fatalf("dispatcher did not drain: %+v", d.Snapshot())
	}
	if m := d.Snapshot(); m.Assigned != 1 || m.RoutedTasks != 0 || m.Ingested != 2 {
		t.Fatalf("assigned/routed/ingested = %d/%d/%d, want 1/0/2", m.Assigned, m.RoutedTasks, m.Ingested)
	}
}

// TestEveryIngestFaceDropsMalformed holds Ingest and the convenience methods
// built on it to the rule IngestBatch applies: every non-finite and
// structural poison event a face can carry is dropped and counted
// Unroutable, never queued or applied, and valid events after them plan as
// if they had never been sent. WorkerOnline, SubmitTask and Heartbeat stamp
// the clock's time themselves, so they carry the poisons with a finite time
// of their kind. IngestBatch rejects every structural poison too.
func TestEveryIngestFaceDropsMalformed(t *testing.T) {
	bad := append(poisonNonFinite(), poisonStructural()...)
	// Each face reports whether it could carry the event.
	faces := []struct {
		name string
		send func(*Dispatcher, Event) bool
	}{
		{"Ingest", func(d *Dispatcher, ev Event) bool { d.Ingest(ev); return true }},
		{"WorkerOnline", func(d *Dispatcher, ev Event) bool {
			if ev.Kind != KindWorkerOnline || !finite(ev.Time) {
				return false
			}
			d.WorkerOnline(ev.Worker)
			return true
		}},
		{"SubmitTask", func(d *Dispatcher, ev Event) bool {
			if ev.Kind != KindTaskSubmit || !finite(ev.Time) {
				return false
			}
			d.SubmitTask(ev.Task)
			return true
		}},
		{"Heartbeat", func(d *Dispatcher, ev Event) bool {
			if ev.Kind != KindPosition || !finite(ev.Time) {
				return false
			}
			d.Heartbeat(ev.ID, ev.Loc)
			return true
		}},
	}
	for _, face := range faces {
		t.Run(face.name, func(t *testing.T) {
			d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
			var sent int64
			for _, ev := range bad {
				if face.send(d, materialize(ev)) {
					sent++
				}
			}
			if sent == 0 {
				t.Fatal("the face carried no poison event")
			}
			d.Tick()
			m := d.Snapshot()
			if m.Unroutable != sent || m.Ingested != 0 || m.Applied != 0 || m.QueueDepth != 0 ||
				m.RoutedWorkers != 0 || m.RoutedTasks != 0 {
				t.Fatalf("%d poison events: unroutable/ingested/applied/queue/workers/tasks = %d/%d/%d/%d/%d/%d, want %d/0/0/0/0/0",
					sent, m.Unroutable, m.Ingested, m.Applied, m.QueueDepth, m.RoutedWorkers, m.RoutedTasks, sent)
			}
			d.Ingest(materialize(validWire[0]))
			d.Ingest(materialize(validWire[1]))
			if !d.Quiesce(200) {
				t.Fatalf("dispatcher did not drain: %+v", d.Snapshot())
			}
			if m := d.Snapshot(); m.Assigned != 1 || m.Ingested != 2 || m.Unroutable != sent {
				t.Fatalf("assigned/ingested/unroutable = %d/%d/%d, want 1/2/%d",
					m.Assigned, m.Ingested, m.Unroutable, sent)
			}
		})
	}
	d := New(Config{NewLadder: oneTier(greedyFactory())})
	for _, ev := range poisonStructural() {
		if acc, rej := d.IngestBatch([]wire.Event{ev}); acc != 0 || rej != 1 {
			t.Errorf("IngestBatch: %s event %+v: accepted %d, rejected %d", ev.Kind, ev, acc, rej)
		}
	}
}

// TestMalformedEventsHarmNothing pins what three events only an unchecked
// Ingest would admit used to do: a task that never expires kept Quiesce from
// draining, one infinite-reach worker widened the auto halo radius to
// infinity for good, and a negative task id, reserved for the forecaster's
// virtual tasks, was admitted and assigned.
func TestMalformedEventsHarmNothing(t *testing.T) {
	worker := func(id int, x, y, reach float64) Event {
		return Event{Kind: KindWorkerOnline,
			Worker: &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: 0, Off: 1000}}
	}
	task := func(id int, x, y, exp float64) Event {
		return Event{Kind: KindTaskSubmit,
			Task: &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: 0, Exp: exp, Cell: -1}}
	}
	t.Run("task that never expires", func(t *testing.T) {
		d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
		d.Ingest(task(1, 1, 1, math.Inf(1)))
		if !d.Quiesce(50) {
			t.Fatalf("dispatcher did not drain: %+v", d.Snapshot())
		}
	})
	t.Run("infinite reach", func(t *testing.T) {
		ghosts := func(bad bool) int64 {
			d := New(Config{
				Shards: 4, Grid: geo.NewGrid(geo.Rect{MaxX: 4, MaxY: 4}, 8, 8), Step: 1,
				NewLadder: oneTier(greedyFactory()),
			})
			d.Ingest(worker(1, 2, 2, 0.3))
			if bad {
				d.Ingest(worker(2, 2, 2, math.Inf(1)))
			}
			for i := 0; i < 40; i++ {
				d.Ingest(task(i+1, 0.05+float64(i%8)*0.5, 0.05+float64(i/8)*0.8, 20))
			}
			d.Advance(30)
			return d.Snapshot().GhostCopies
		}
		if with, without := ghosts(true), ghosts(false); with != without {
			t.Fatalf("ghost copies %d with the infinite-reach worker, %d without", with, without)
		}
	})
	t.Run("negative task id", func(t *testing.T) {
		d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
		d.Ingest(worker(1, 1, 1, 1))
		d.Ingest(task(-5, 1, 1, 50))
		d.Advance(60)
		if m := d.Snapshot(); m.Assigned != 0 || m.Unroutable != 1 {
			t.Fatalf("assigned/unroutable = %d/%d, want 0/1", m.Assigned, m.Unroutable)
		}
	})
}

// TestIngestDropsNonFiniteTime: Ingest is exported and accepts any Time. An
// event whose Time is NaN orders neither before nor after anything, so it has
// no place in the (Time, ingest order) order admission applies events in (on
// the pending heap it would settle at the root and block every event behind
// it); ±Inf could never come due, or would keep Quiesce from ever draining. Ingest
// drops all three and counts them Unroutable, and the valid events after
// them plan as if they had never been sent.
func TestIngestDropsNonFiniteTime(t *testing.T) {
	d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
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
		NewLadder: oneTier(greedyFactory()),
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
