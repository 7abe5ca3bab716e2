package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	datawa "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// frameCap is the most due events one wire frame carries, dispatch.LoadGen's
// stream-transport default.
const frameCap = 256

// quiesceEpochs bounds the untimed drain after a replay; every workload's
// longest task validity is a few dozen epochs.
const quiesceEpochs = 4096

// replay is what one pass of a trace through a fresh dispatcher measured.
type replay struct {
	// tickNS is the externally timed Dispatcher.Tick latency per epoch.
	tickNS []int64
	// encodeNS, decodeNS and ingestNS total the per-frame AppendFrame,
	// DecodeFrame and IngestBatch times.
	encodeNS, decodeNS, ingestNS int64
	wireBytes                    int64
	rejected                     int
	// wall covers the replay loop; cpu is process user+sys time over it.
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	// end is the snapshot when the clock reached T1 — what Framework.Run
	// reports on the same range; drained is the snapshot after the untimed
	// Quiesce, when every task is terminal.
	end, drained datawa.DispatchMetrics
	quiesced     bool
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// runReplay drives the trace through d the way a streaming client does:
// frames of at most frameCap due events go AppendFrame → DecodeFrame →
// IngestBatch, and the epoch clock ticks exactly when
// dispatch.LoadGen.runStream would tick it — before the first event that is
// not yet due, then on to T1. One producer goroutine, closed loop, unpaced.
// With a recorder every call into a layer leaves a span and each epoch starts
// with a Snapshot; without one the loop only reads the clock.
func runReplay(d *datawa.Dispatcher, tr *trace, step float64, rec *recorder) replay {
	r := replay{tickNS: make([]int64, 0, tr.epochs(step))}
	var (
		decoded = make([]wire.Event, 0, frameCap)
		frame   []byte
		m0, m1  runtime.MemStats
	)
	tick := func() {
		if rec != nil {
			rec.snapshot(d.Snapshot())
		}
		t0 := time.Now()
		d.Tick()
		dur := time.Since(t0)
		r.tickNS = append(r.tickNS, dur.Nanoseconds())
		if rec != nil {
			rec.tick(t0, dur)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	events := tr.events
	for i := 0; i < len(events); {
		for d.Now() < events[i].Time {
			tick()
		}
		now := d.Now()
		j := i
		for j < len(events) && j-i < frameCap && events[j].Time <= now {
			j++
		}
		var err error
		t0 := time.Now()
		if frame, err = wire.AppendFrame(frame[:0], events[i:j]); err != nil {
			panic(fmt.Sprintf("benchmark: trace event does not encode: %v", err))
		}
		t1 := time.Now()
		if decoded, _, err = wire.DecodeFrame(frame, decoded[:0]); err != nil {
			panic(fmt.Sprintf("benchmark: frame does not decode: %v", err))
		}
		t2 := time.Now()
		_, rej := d.IngestBatch(decoded)
		t3 := time.Now()
		r.encodeNS += t1.Sub(t0).Nanoseconds()
		r.decodeNS += t2.Sub(t1).Nanoseconds()
		r.ingestNS += t3.Sub(t2).Nanoseconds()
		r.wireBytes += int64(len(frame))
		r.rejected += rej
		if rec != nil {
			rec.frame(t0, t1, t2, t3, j-i)
		}
		i = j
	}
	for d.Now() < tr.t1 {
		tick()
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	if rec != nil && rec.atT1 != nil {
		rec.atT1()
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.end = d.Snapshot()
	if rec != nil {
		rec.stages(d.SpanTrace(0))
	}
	r.quiesced = d.Quiesce(quiesceEpochs)
	r.drained = d.Snapshot()
	return r
}

// span is one traced region. Spans of one epoch share Epoch; Parent is the
// id of the span that caused this one (0 for a root). Start is nanoseconds
// since the recorder's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Epoch  int    `json:"epoch"`
	// Track separates concurrent siblings: 0 is the driving goroutine and the
	// dispatcher's sequential stages, 1+i is shard i.
	Track   int   `json:"track"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// N is the span's unit count: events in a frame, events drained, open
	// tasks at a shard's planning instant.
	N int `json:"n,omitempty"`
}

// Span names, one per call into a layer.
const (
	spanEncode = "wire.append_frame"
	spanDecode = "wire.decode_frame"
	spanIngest = "dispatch.ingest_batch"
	spanTick   = "dispatch.tick"
	spanPlan   = "stream.plan"
	// The dispatcher's own stage spans are renamed dispatch.<stage>; a
	// shard's Step is dispatch.shard_step.
	spanStagePrefix = "dispatch."
	spanShardStep   = "dispatch.shard_step"
)

// recorder collects the traced replay's spans and per-epoch snapshots in
// memory; they are written out once the run is over.
type recorder struct {
	origin time.Time
	spans  []span
	// ticks holds the index into spans of each epoch's tick span.
	ticks []int
	// pre is the Snapshot taken before each epoch's Tick, after its events
	// were ingested.
	pre []datawa.DispatchMetrics
	// atT1, when set, runs as soon as the replay loop ends, before the
	// untimed drain.
	atT1 func()
}

func newRecorder(epochs int) *recorder {
	return &recorder{
		origin: time.Now(),
		ticks:  make([]int, 0, epochs),
		pre:    make([]datawa.DispatchMetrics, 0, epochs),
	}
}

func (rec *recorder) add(s span) int {
	s.ID = len(rec.spans) + 1
	rec.spans = append(rec.spans, s)
	return s.ID
}

func (rec *recorder) snapshot(m datawa.DispatchMetrics) { rec.pre = append(rec.pre, m) }

func (rec *recorder) tick(start time.Time, dur time.Duration) {
	rec.add(span{Name: spanTick, Epoch: len(rec.ticks), StartNS: start.Sub(rec.origin).Nanoseconds(), DurNS: dur.Nanoseconds()})
	rec.ticks = append(rec.ticks, len(rec.spans)-1)
}

// frame records the three per-frame spans; they belong to the epoch that will
// consume the frame's events.
func (rec *recorder) frame(t0, t1, t2, t3 time.Time, n int) {
	epoch := len(rec.ticks)
	rec.add(span{Name: spanEncode, Epoch: epoch, N: n, StartNS: t0.Sub(rec.origin).Nanoseconds(), DurNS: t1.Sub(t0).Nanoseconds()})
	rec.add(span{Name: spanDecode, Epoch: epoch, N: n, StartNS: t1.Sub(rec.origin).Nanoseconds(), DurNS: t2.Sub(t1).Nanoseconds()})
	rec.add(span{Name: spanIngest, Epoch: epoch, N: n, StartNS: t2.Sub(rec.origin).Nanoseconds(), DurNS: t3.Sub(t2).Nanoseconds()})
}

// stages hangs the dispatcher's own stage spans under the externally timed
// tick spans. The dispatcher stamps its spans against a private origin, so
// each epoch's spans are shifted to start where the tick span starts; the
// error is the few nanoseconds between entering Tick and the first stage.
// Shard Steps become children of the step stage, arbitration rounds and
// retractions children of the arbitration stage, and each shard's plan time —
// the per-epoch delta of its Snapshot stats — a child of its Step. A plan
// span carries only a duration: its start is its parent's.
func (rec *recorder) stages(epochs []obs.EpochSpans) {
	for _, es := range epochs {
		if es.Epoch >= len(rec.ticks) || len(es.Spans) == 0 {
			continue
		}
		tick := rec.spans[rec.ticks[es.Epoch]]
		shift := tick.StartNS - es.Spans[0].StartNS
		convert := func(sp obs.Span) span {
			return span{Name: spanStagePrefix + sp.Name, Epoch: es.Epoch, Track: sp.Track, N: sp.N, StartNS: sp.StartNS + shift, DurNS: sp.DurNS}
		}
		nested := func(sp obs.Span) bool {
			return sp.Track > 0 || sp.Name == "arbitration-round" || sp.Name == "retract"
		}
		// Rounds and shard Steps are recorded before the stage span that
		// contains them closes, so the stages go in first.
		var stepID, arbID int
		for _, sp := range es.Spans {
			if nested(sp) {
				continue
			}
			s := convert(sp)
			s.Parent = tick.ID
			switch id := rec.add(s); sp.Name {
			case "step":
				stepID = id
			case "arbitration":
				arbID = id
			}
		}
		for _, sp := range es.Spans {
			if !nested(sp) {
				continue
			}
			s := convert(sp)
			if sp.Track == 0 {
				s.Parent = arbID
				rec.add(s)
				continue
			}
			s.Name, s.Parent = spanShardStep, stepID
			id := rec.add(s)
			if plan := rec.planDelta(es.Epoch, sp.Track-1); plan > 0 {
				rec.add(span{Parent: id, Name: spanPlan, Epoch: es.Epoch, Track: sp.Track, StartNS: s.StartNS, DurNS: plan})
			}
		}
	}
}

// planDelta is shard's planner time during epoch: the difference between the
// snapshots that bracket the epoch's Tick. The last epoch has no following
// snapshot and reports 0 here; totals come from the end-of-replay snapshot.
func (rec *recorder) planDelta(epoch, shard int) int64 {
	if epoch+1 >= len(rec.pre) {
		return 0
	}
	a, b := rec.pre[epoch].Shards, rec.pre[epoch+1].Shards
	if shard >= len(a) || shard >= len(b) {
		return 0
	}
	return (b[shard].Stats.PlanTime - a[shard].Stats.PlanTime).Nanoseconds()
}
