package dispatch

import (
	"fmt"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// LoadGen replays a scenario event trace (workload.Scenario.Events) against
// a dispatcher for closed-loop load testing, over the transport every
// /v1/stream client uses: due events are encoded into wire frames
// (internal/wire) and decoded back through Dispatcher.IngestBatch, without
// socket noise. Events are ingested in trace order, epochs run exactly when
// the logical clock reaches them, and the replay is unpaced: it runs as fast
// as the dispatcher plans, so the achieved events/sec measures dispatcher
// throughput, planning included.
type LoadGen struct {
	// Events is the time-ordered trace to replay.
	Events []workload.Event
	// T1 is the logical horizon: after the last event the dispatcher is
	// advanced to T1 so in-flight work drains, mirroring the engine's
	// [T0, T1) clock range.
	T1 float64
}

// frameEvents is the most due events one replay frame carries.
const frameEvents = 256

// LoadResult summarizes one replay.
type LoadResult struct {
	// Events is the number of trace events ingested.
	Events int
	// Wall is the total wall-clock duration of the replay.
	Wall time.Duration
	// AchievedRate is Events / Wall in events per second.
	AchievedRate float64
	// Metrics is the dispatcher snapshot after the final epoch. Under
	// admission control its Shed and Deferred count the trace events the
	// dispatcher shed or deferred instead of assigning.
	Metrics Metrics
}

// Run replays the trace. The caller must not Advance or Serve the dispatcher
// concurrently: LoadGen owns the epoch clock for the duration of the replay.
//
// The replay walks the trace in due-batches — maximal runs of at most
// frameEvents events already ingestible at the current clock — and runs
// every epoch strictly before a batch's first instant, so each event is in
// the queue when the epoch covering its Time executes. Each batch is encoded
// as one wire frame, decoded into a reused buffer and batch-ingested; a trace
// event that does not encode, or that IngestBatch rejects, panics.
func (g LoadGen) Run(d *Dispatcher) LoadResult {
	var (
		batch   = make([]wire.Event, 0, frameEvents)
		decoded = make([]wire.Event, 0, frameEvents)
		frame   []byte
		err     error
	)
	start := time.Now() //datawa:wallclock wall-time report, sanctioned LoadGen use
	for i := 0; i < len(g.Events); i += len(batch) {
		for d.Now() < g.Events[i].Time {
			d.Tick()
		}
		now := d.Now()
		batch = append(batch[:0], wireEvent(g.Events[i]))
		for j := i + 1; j < len(g.Events) && len(batch) < frameEvents && g.Events[j].Time <= now; j++ {
			batch = append(batch, wireEvent(g.Events[j]))
		}
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
	// The replay ends at the logical horizon unconditionally: progress is
	// driven by the epoch clock, never by awaiting per-event outcomes, so
	// events the dispatcher shed under admission control end the replay as
	// counters, not as a hang.
	d.Advance(g.T1)
	wall := time.Since(start) //datawa:wallclock achieved-rate report, sanctioned LoadGen use
	res := LoadResult{Events: len(g.Events), Wall: wall, Metrics: d.Snapshot()}
	if wall > 0 {
		res.AchievedRate = float64(res.Events) / wall.Seconds()
	}
	return res
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
