package dispatch

import (
	"fmt"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// LoadGen replays a scenario event trace (workload.Scenario.Events) against
// a dispatcher for closed-loop load testing: events are ingested in trace
// order, epochs run exactly when the logical clock reaches them, and an
// optional rate limit paces ingestion against wall time. With Rate ≤ 0 the
// replay runs as fast as the dispatcher plans — the achieved events/sec then
// measures dispatcher throughput, planning included.
type LoadGen struct {
	// Events is the time-ordered trace to replay.
	Events []workload.Event
	// Rate is the target ingest rate in events per wall second (≤ 0 =
	// unpaced).
	Rate float64
	// T1 is the logical horizon: after the last event the dispatcher is
	// advanced to T1 so in-flight work drains, mirroring the engine's
	// [T0, T1) clock range.
	T1 float64
	// Stream selects the binary-stream transport: due events are encoded
	// into wire frames (internal/wire) and decoded back through
	// Dispatcher.IngestBatch — the full batched codec path a /v1/stream
	// client exercises, without socket noise. Events reach the dispatcher
	// in identical order at identical planning instants, so assignment
	// state is byte-identical to the per-event transport; only the cost
	// per event changes.
	Stream bool
	// Batch caps events per frame in Stream mode (default 256).
	Batch int
}

// LoadResult summarizes one replay.
type LoadResult struct {
	// Events is the number of trace events ingested.
	Events int
	// Wall is the total wall-clock duration of the replay.
	Wall time.Duration
	// AchievedRate is Events / Wall in events per second.
	AchievedRate float64
	// Shed and Deferred surface the dispatcher's admission-control
	// counters at the end of the replay. A dispatcher under admission
	// control may shed trace events instead of assigning them; LoadGen
	// counts those outcomes rather than waiting on assignments that can
	// never arrive, so a replay always terminates at the logical horizon.
	Shed     int64
	Deferred int64
	// Metrics is the dispatcher snapshot after the final epoch.
	Metrics Metrics
}

// Run replays the trace. The caller must not Advance or Serve the dispatcher
// concurrently: LoadGen owns the epoch clock for the duration of the replay.
//
// The replay walks the trace in due-batches — maximal runs of events already
// ingestible at the current clock, capped per transport — and runs every
// epoch strictly before a batch's first instant, so each event is in the
// queue when the epoch covering its Time executes. Only delivery differs by
// transport: the per-event transport caps a batch at one event and hands it
// to Ingest; the stream transport encodes the batch as one wire frame,
// decodes it into a reused buffer and batch-ingests it. Both therefore admit
// every event at the same planning instant.
func (g LoadGen) Run(d *Dispatcher) LoadResult {
	batchCap := 1
	deliver := func(due []workload.Event) { d.Ingest(traceEvent(due[0])) }
	if g.Stream {
		if batchCap = g.Batch; batchCap <= 0 {
			batchCap = 256
		}
		var (
			batch   = make([]wire.Event, 0, batchCap)
			decoded = make([]wire.Event, 0, batchCap)
			frame   []byte
		)
		deliver = func(due []workload.Event) {
			batch = batch[:0]
			for _, ev := range due {
				batch = append(batch, wireEvent(ev))
			}
			var err error
			if frame, err = wire.AppendFrame(frame[:0], batch); err != nil {
				panic(fmt.Sprintf("loadgen: trace event does not encode: %v", err))
			}
			if decoded, _, err = wire.DecodeFrame(frame, decoded[:0]); err != nil {
				panic(fmt.Sprintf("loadgen: frame does not decode: %v", err))
			}
			if _, rej := d.IngestBatch(decoded); rej > 0 {
				panic(fmt.Sprintf("loadgen: %d trace events rejected by IngestBatch", rej))
			}
		}
	}
	var interval time.Duration
	if g.Rate > 0 {
		interval = time.Duration(float64(time.Second) / g.Rate)
	}
	start := time.Now() //datawa:wallclock replay pacing and wall-time report, sanctioned LoadGen use
	next := start
	for i := 0; i < len(g.Events); {
		for d.Now() < g.Events[i].Time {
			d.Tick()
		}
		now := d.Now()
		j := i + 1
		for j < len(g.Events) && j-i < batchCap && g.Events[j].Time <= now {
			j++
		}
		deliver(g.Events[i:j])
		if interval > 0 {
			next = next.Add(time.Duration(j-i) * interval)
			if wait := time.Until(next); wait > 0 { //datawa:wallclock replay pacing, sanctioned LoadGen use
				time.Sleep(wait)
			}
		}
		i = j
	}
	// The replay ends at the logical horizon unconditionally: progress is
	// driven by the epoch clock, never by awaiting per-event outcomes, so
	// events the dispatcher shed under admission control end the replay as
	// counters, not as a hang.
	d.Advance(g.T1)
	wall := time.Since(start) //datawa:wallclock achieved-rate report, sanctioned LoadGen use
	m := d.Snapshot()
	res := LoadResult{
		Events: len(g.Events), Wall: wall,
		Shed: m.Shed, Deferred: m.Deferred, Metrics: m,
	}
	if wall > 0 {
		res.AchievedRate = float64(res.Events) / wall.Seconds()
	}
	return res
}

// traceEvent converts one trace event to a dispatcher ingest event.
func traceEvent(ev workload.Event) Event {
	switch ev.Kind {
	case workload.WorkerOnline:
		return Event{Time: ev.Time, Kind: KindWorkerOnline, Worker: ev.Worker}
	case workload.TaskSubmit:
		return Event{Time: ev.Time, Kind: KindTaskSubmit, Task: ev.Task}
	}
	panic(fmt.Sprintf("loadgen: unknown trace event kind %v", ev.Kind))
}

// wireEvent converts one trace event to its wire form.
func wireEvent(ev workload.Event) wire.Event {
	switch ev.Kind {
	case workload.WorkerOnline:
		w := ev.Worker
		return wire.Event{
			Time: ev.Time, Kind: wire.WorkerOnline, ID: int64(w.ID),
			X: w.Loc.X, Y: w.Loc.Y, Reach: w.Reach, On: w.On, Off: w.Off,
		}
	case workload.TaskSubmit:
		s := ev.Task
		return wire.Event{
			Time: ev.Time, Kind: wire.TaskSubmit, ID: int64(s.ID),
			X: s.Loc.X, Y: s.Loc.Y, Pub: s.Pub, Exp: s.Exp,
		}
	}
	panic(fmt.Sprintf("loadgen: unknown trace event kind %v", ev.Kind))
}
