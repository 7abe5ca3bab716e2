package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// ObsConfig enables the dispatcher's observability core (internal/obs):
// stage spans, the per-task lifecycle ledger, and the flight recorder. The
// epoch and per-stage wall-time histograms are always on — they cost a
// handful of clock reads per epoch — so the zero value still yields
// histogram-native /metrics; spans, ledger, and flight recording are pay-
// for-what-you-enable.
type ObsConfig struct {
	// Spans retains the last N epochs of stage spans for GET /v1/trace.json
	// (0 = span recording off).
	Spans int
	// LedgerTasks bounds the lifecycle ledger to N task chains for
	// GET /v1/tasks/{id}/history (0 = ledger off). Terminal chains evict
	// first once full.
	LedgerTasks int
	// FlightDepth arms the flight recorder: on an anomaly trigger (governor
	// demotion, shed, over-budget epoch, ledger chain violation) the last
	// FlightDepth epochs of spans plus the ledger chains active in that
	// window freeze into a dump (0 = recorder off). Arming the recorder
	// defaults Spans and LedgerTasks on when they are unset.
	FlightDepth int
	// FlightDir, when non-empty, writes each dump to
	// <FlightDir>/flight-<epoch>-<reason>.json as it is captured.
	FlightDir string
}

// flightMax bounds the retained dump ring.
const flightMax = 8

func (c ObsConfig) withDefaults() ObsConfig {
	if c.FlightDepth > 0 {
		if c.Spans <= 0 {
			c.Spans = 4 * c.FlightDepth
		}
		if c.LedgerTasks <= 0 {
			c.LedgerTasks = 8192
		}
	}
	return c
}

// obsState is the dispatcher's observability state, mutated only under the
// epoch lock. The histograms always exist; spans/ledger/flight are nil when
// the corresponding ObsConfig knob is off. base is the wall origin all span
// timestamps are relative to — wall fields are the only non-deterministic
// content anywhere in here.
type obsState struct {
	cfg       ObsConfig
	base      time.Time
	epochHist *obs.Histogram
	stageHist [numStages]*obs.Histogram
	spans     *obs.Ring[obs.EpochSpans]
	ledger    *obs.Ledger
	flight    *obs.Ring[obs.FlightDump]

	// Per-tick scratch: the logical position stamps ledger records, mark is
	// the last stage boundary (see runStage), cur accumulates the epoch's
	// spans.
	epoch int
	now   float64
	mark  time.Time
	cur   []obs.Span

	// Flight trigger baselines and cooldown.
	flightAfter    int
	lastShed       int64
	lastDemotions  int64
	lastViolations int64
}

func newObsState(cfg ObsConfig) *obsState {
	o := &obsState{cfg: cfg.withDefaults(), base: time.Now()} //datawa:wallclock span timebase, observability only
	o.epochHist = obs.NewLatencyHistogram()
	for i := range o.stageHist {
		o.stageHist[i] = obs.NewLatencyHistogram()
	}
	if o.cfg.Spans > 0 {
		o.spans = obs.NewRing[obs.EpochSpans](o.cfg.Spans)
	}
	if o.cfg.LedgerTasks > 0 {
		o.ledger = obs.NewLedger(o.cfg.LedgerTasks)
	}
	if o.cfg.FlightDepth > 0 {
		o.flight = obs.NewRing[obs.FlightDump](flightMax)
	}
	return o
}

// span appends an ad-hoc span (arbitration rounds, retraction resumes).
func (o *obsState) span(name string, track int, start time.Time, n int, detail string) {
	if o.spans == nil {
		return
	}
	o.cur = append(o.cur, obs.Span{
		Name: name, Track: track, N: n, Detail: detail,
		StartNS: start.Sub(o.base).Nanoseconds(), DurNS: time.Since(start).Nanoseconds(), //datawa:wallclock span duration, observability only
	})
}

// recordTask ledgers one lifecycle transition at the current tick's logical
// position. shard −1 marks dispatcher-level decisions outside any shard.
//
//datawa:locked(mu)
func (d *Dispatcher) recordTask(id int, st obs.State, shard, worker int, cause string) {
	o := d.ob
	if o.ledger == nil {
		return
	}
	o.ledger.Record(id, obs.Transition{
		State: st, Epoch: o.epoch, Now: o.now, Shard: shard, Worker: worker, Cause: cause,
	})
}

// maybeFlightLocked checks the anomaly triggers after an epoch and captures
// a dump at most once per FlightDepth epochs — a trigger condition that
// persists (sustained shedding, a demotion storm) yields one dump per
// window, not one per epoch.
//
//datawa:locked(mu)
func (d *Dispatcher) maybeFlightLocked(t float64) {
	o := d.ob
	if o.flight == nil {
		return
	}
	shed := d.shedIngest
	for _, m := range d.shards {
		shed += int64(m.Stats().Shed)
	}
	var demotions int64
	if d.gov != nil {
		demotions, _ = d.gov.Counters()
	}
	var violations int64
	if o.ledger != nil {
		violations = o.ledger.Violations()
	}
	overBudget := false
	if d.gov != nil {
		for _, p := range d.probe {
			if float64(p.work) > d.cfg.Governor.Budget {
				overBudget = true
				break
			}
		}
	}

	reason := ""
	switch {
	case violations > o.lastViolations:
		reason = "ledger-violation"
	case demotions > o.lastDemotions:
		reason = "governor-demotion"
	case shed > o.lastShed:
		reason = "shed"
	case overBudget:
		reason = "over-budget-epoch"
	}
	o.lastShed, o.lastDemotions, o.lastViolations = shed, demotions, violations
	if reason == "" || d.epochs < o.flightAfter {
		return
	}
	o.flightAfter = d.epochs + o.cfg.FlightDepth

	dump := obs.FlightDump{Reason: reason, Epoch: d.epochs, Now: t}
	if o.spans != nil {
		dump.Spans = o.spans.Last(o.cfg.FlightDepth)
	}
	if o.ledger != nil {
		dump.Tasks = o.ledger.Recent(d.epochs - o.cfg.FlightDepth + 1)
	}
	o.flight.Add(dump)
	if o.cfg.FlightDir != "" {
		name := filepath.Join(o.cfg.FlightDir, fmt.Sprintf("flight-%d-%s.json", dump.Epoch, dump.Reason))
		if raw, err := json.MarshalIndent(dump, "", "  "); err == nil {
			if err := os.WriteFile(name, raw, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dispatch: flight dump %s: %v\n", name, err)
			}
		}
	}
}

// SpanTrace returns up to n retained epochs of stage spans, oldest first
// (n ≤ 0 = all). Empty unless ObsConfig.Spans is set.
func (d *Dispatcher) SpanTrace(n int) []obs.EpochSpans {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ob.spans == nil {
		return nil
	}
	return d.ob.spans.Last(n)
}

// ChromeTrace renders the retained span ring (newest n epochs; n ≤ 0 = all)
// as Chrome trace-event JSON — load it in chrome://tracing or Perfetto. The
// dispatcher's sequential stages render on track 0, each shard's planner
// Step on its own parallel track.
func (d *Dispatcher) ChromeTrace(n int) ([]byte, error) {
	spans := d.SpanTrace(n)
	tracks := make([]string, 1+len(d.shards))
	tracks[0] = "dispatcher"
	for i := range d.shards {
		tracks[1+i] = fmt.Sprintf("shard %d", i)
	}
	return obs.ChromeTrace(spans, tracks)
}

// TaskHistory returns the ledger's transition chain for one task. False when
// the ledger is off, never saw the id, or already evicted it.
func (d *Dispatcher) TaskHistory(id int) (obs.TaskHistory, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ob.ledger == nil {
		return obs.TaskHistory{}, false
	}
	return d.ob.ledger.History(id)
}

// LedgerAudit scans every retained chain for shape violations (see
// obs.Ledger.Audit). evictions reports how many chains were dropped to stay
// within LedgerTasks — an audit only covers the full population when it is
// zero.
func (d *Dispatcher) LedgerAudit() (issues []obs.AuditIssue, evictions int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ob.ledger == nil {
		return nil, 0
	}
	return d.ob.ledger.Audit(), d.ob.ledger.Evictions()
}

// LedgerTerminals tallies the retained ledger chains by terminal state; live
// (unterminated) chains count under the empty state. After a full drain the
// tally must reproduce the snapshot's terminal counters exactly — the
// benchsuite conservation gate cross-checks the two and names the tasks
// whose chains disagree.
func (d *Dispatcher) LedgerTerminals() map[obs.State]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ob.ledger == nil {
		return nil
	}
	return d.ob.ledger.TerminalCounts()
}

// FlightDumps returns the retained flight-recorder dumps, oldest first.
// Empty unless ObsConfig.FlightDepth is set.
func (d *Dispatcher) FlightDumps() []obs.FlightDump {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ob.flight == nil {
		return nil
	}
	return d.ob.flight.All()
}

// StageHistogram pairs a stage name with its wall-time histogram snapshot.
type StageHistogram struct {
	Stage string
	Data  obs.HistogramSnapshot
}

// Histograms snapshots the epoch and per-stage wall-time histograms — the
// log-bucketed series behind /metrics' _bucket/_sum/_count exposition.
func (d *Dispatcher) Histograms() (epoch obs.HistogramSnapshot, stages []StageHistogram) {
	d.mu.Lock()
	defer d.mu.Unlock()
	epoch = d.ob.epochHist.Snapshot()
	stages = make([]StageHistogram, numStages)
	for i := range d.ob.stageHist {
		stages[i] = StageHistogram{Stage: epochStages[i].name, Data: d.ob.stageHist[i].Snapshot()}
	}
	return epoch, stages
}

// FannedEpochs counts the epochs whose shards stepped on more than one
// goroutine (stepLocked). The fan-out follows the shards' Step walls, so the
// count is wall-clock observability, outside Snapshot's logical counters.
func (d *Dispatcher) FannedEpochs() int64 { return d.fanned.Load() }
