package dispatch

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stream"
)

// Tick runs exactly one planning epoch at the current clock instant and
// advances the clock one step.
func (d *Dispatcher) Tick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tickLocked()
}

// Advance runs epochs at the step cadence while the clock is before `to`
// (exclusive, matching the engine's `for t := T0; t < T1` loop). Driving a
// fresh dispatcher with Advance(T1) replays exactly the planning instants
// stream.Engine executes on [Now, T1).
func (d *Dispatcher) Advance(to float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.Now() < to {
		d.tickLocked()
	}
}

// Serve drives epochs from wall time until the context is cancelled: one
// epoch every Step/timeScale wall seconds (timeScale ≤ 0 means 1 — real
// time; 60 runs a minute of logical time per wall second).
func (d *Dispatcher) Serve(ctx context.Context, timeScale float64) error {
	if timeScale <= 0 {
		timeScale = 1
	}
	interval := time.Duration(d.cfg.Step / timeScale * float64(time.Second))
	if interval <= 0 {
		return fmt.Errorf("dispatch: step %v at scale %v yields no tick interval", d.cfg.Step, timeScale)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			d.Tick()
		}
	}
}

// Quiesce runs planning epochs until the dispatcher is fully drained — no
// queued or pending events, no open tasks — and, when the governor is on,
// every shard has recovered to the top planner tier; maxEpochs bounds the
// loop. It reports whether the drained-and-recovered state was reached.
// After a successful Quiesce every submitted task is terminal, so the
// conservation identity assigned + expired + cancelled + shed == submitted
// holds exactly — the benchsuite's chaos gate asserts it.
func (d *Dispatcher) Quiesce(maxEpochs int) bool {
	for i := 0; i <= maxEpochs; i++ {
		d.mu.Lock()
		// Drain as of the epoch that follows; its own drain appends after.
		d.drainLocked(d.Now())
		done := d.backlogLocked() == 0 && d.openLocked() == 0
		if done && d.gov != nil {
			for s := range d.shards {
				if d.gov.TierOf(s) != 0 {
					done = false
					break
				}
			}
		}
		if !done && i < maxEpochs {
			d.tickLocked()
		}
		d.mu.Unlock()
		if done {
			return true
		}
	}
	return false
}

const numStages = 6

// stage is one named step of the epoch loop. run reports the stage's work
// count — events drained or applied, virtual tasks materialized, shards
// stepped, arbitration rounds — and whether it did anything this epoch.
// detail, when set, is the stage span's detail.
type stage struct {
	name   string
	run    func(d *Dispatcher, t float64) (n int, ran bool)
	detail func(d *Dispatcher) string
}

// epochStages is the epoch, in execution order. The entries are method
// expressions, not closures, so running the table allocates nothing.
var epochStages = [numStages]stage{
	{"drain", (*Dispatcher).drainStage, nil},
	{"admission", (*Dispatcher).applyDueLocked, nil},
	{"reghost", (*Dispatcher).reGhostLocked, nil},
	{"forecast", (*Dispatcher).forecastLocked, nil},
	{"step", (*Dispatcher).stepLocked, (*Dispatcher).fanDetail},
	{"arbitration", (*Dispatcher).arbitrateLocked, nil},
}

// tickLocked is one epoch: run the stage table, let the governor re-tier,
// advance the clock. Caller holds d.mu. Stage boundaries are the epoch's only
// clock reads outside the parallel Steps: each stage runs from the previous
// boundary to its own, so the six stage times sum to the epoch histogram's
// sample exactly.
//
//datawa:locked(mu)
func (d *Dispatcher) tickLocked() {
	t := d.Now()
	o := d.ob
	o.epoch, o.now = d.epochs, t
	o.cur = o.cur[:0]
	o.mark = time.Now() //datawa:wallclock epoch start, observability only
	tick0 := o.mark
	for i := range epochStages {
		d.runStage(i, t)
	}
	o.epochHist.Observe(o.mark.Sub(tick0).Seconds())

	if d.gov != nil {
		// Governor decisions apply from the next epoch: the tier moves
		// after this epoch's Step, under the same lock the next Step plans
		// under, so every shard's planner is fixed for a whole epoch.
		for i := range d.probe {
			p := &d.probe[i]
			p.cost = d.gov.cfg.Cost(i, p.wall, p.workers, p.open)
			d.gov.Observe(i, p.cost)
		}
	}
	if o.spans != nil {
		o.spans.Add(obs.EpochSpans{Epoch: o.epoch, Now: t, Spans: append([]obs.Span(nil), o.cur...)})
	}
	d.maybeFlightLocked(t)
	d.epochs++
	d.nowBits.Store(math.Float64bits(t + d.cfg.Step))
}

// runStage runs stage i and records it. The one clock read closes the stage
// and opens the next; the stage's wall time goes to its histogram every epoch
// — a stage that did not run observes ~zero, which keeps every stage
// histogram's _count equal to datawa_epochs_total (the exposition-lint test
// relies on it) — and, when the stage ran and span recording is on
// (ObsConfig.Spans), to a span on track 0, the dispatcher's sequential track.
//
//datawa:locked(mu)
func (d *Dispatcher) runStage(i int, t float64) {
	n, ran := epochStages[i].run(d, t)
	o := d.ob
	end := time.Now() //datawa:wallclock stage boundary: histogram and span timing, observability only
	dur := end.Sub(o.mark)
	o.stageHist[i].Observe(dur.Seconds())
	if ran && o.spans != nil {
		sp := obs.Span{
			Name: epochStages[i].name, Track: 0, N: n,
			StartNS: o.mark.Sub(o.base).Nanoseconds(), DurNS: dur.Nanoseconds(),
		}
		if detail := epochStages[i].detail; detail != nil {
			sp.Detail = detail(d)
		}
		o.cur = append(o.cur, sp)
	}
	o.mark = end
}

//datawa:locked(mu)
func (d *Dispatcher) drainStage(t float64) (int, bool) { return d.drainLocked(t), true }

// fanDetail is the step stage span's detail: the goroutines the epoch's
// shards stepped on. It follows the walls, so it is wall-clock detail, not
// logical.
//
//datawa:locked(mu)
func (d *Dispatcher) fanDetail() string { return fmt.Sprintf("fan=%d", d.fan) }

// shardProbe is one shard's measurement of one epoch: pool sizes at the
// planning instant (before the Step mutates them), the Step's wall time, and
// the cost the governor scored from them. The wall is taken every epoch: the
// next epoch's fan-out decision weighs it.
type shardProbe struct {
	workers, open int
	start         time.Time
	wall          time.Duration
	cost          float64
}

// shardGrain is the least overlap worth stepping an epoch's shards on more
// than one goroutine, in µs of Step wall a second goroutine could take (what
// fanOut weighs). Fanning out costs a spawn and a wake-up of an idle CPU per
// shard (≈ 30–40 µs, docs/BENCHMARKS.md, "Fan-out grains") and a stack the
// search recursion grows afresh on every new goroutine, while most
// spike-search shard Steps hold fewer than 25 open tasks and take ≈ 4 µs.
// Against fanning every epoch out, on a two-CPU host over 18 seeds,
// spike-search's events_per_s read +18.8% at 200 µs, +16.6% at 50 µs and
// +22.1% with every epoch inline; but every epoch inline cost the 5x
// rush-hour SSP crowd on four shards 14% of its live rate, which 200 µs
// keeps (7,766 against 7,730 events/s, medians of four runs).
const shardGrain = 200

// fanOut decides an epoch's shard fan-out from each shard's previous Step
// wall (probe), the parallelism setting, and procs, what the setting 0
// resolves to (runtime.GOMAXPROCS). The work a second goroutine could take is
// the walls' sum less the longest, since the epoch cannot end before its
// longest shard; par.Workers weighs it against grain µs, and the count never
// exceeds the shards. budget is each shard planner's share of the setting:
// all of it when the shards step inline, so one busy shard fans out its own
// loops, and total/fan when they share the CPUs. The first epoch has no walls
// and steps inline. grain 0 fans every multi-shard epoch out (the tests'
// hook onto the par.Do branch).
func fanOut(probe []shardProbe, parallelism, procs, grain int) (fan, budget int) {
	total := parallelism
	if total == 0 {
		total = procs
	}
	var sum, longest time.Duration
	for _, p := range probe {
		sum += p.wall
		longest = max(longest, p.wall)
	}
	overlap := int((sum - longest) / time.Microsecond)
	if grain == 0 {
		overlap, grain = len(probe), 1
	}
	fan = min(par.Workers(total, overlap, grain), len(probe))
	return fan, max(1, total/fan)
}

// stepLocked plans every shard: inline in index order when the shards' last
// walls leave too little overlap to pay for a goroutine (fanOut), otherwise
// each on a goroutine of its own through par.Do. Every shard planner gets
// its share of the parallelism budget for the fan-out decided, reset only
// when the fan-out changes. It fills each shard's probe and, with span
// recording on, leaves one span per shard — its own track, the tier the
// epoch planned at and the pool sizes as deterministic detail — ahead of the
// stage span that closes over them.
//
//datawa:locked(mu)
func (d *Dispatcher) stepLocked(t float64) (int, bool) {
	fan, budget := fanOut(d.probe, d.cfg.Parallelism, runtime.GOMAXPROCS(0), d.grain)
	if fan != d.fan {
		for _, p := range d.tiered {
			p.SetParallelism(budget)
		}
		d.fan = fan
	}
	if fan == 1 {
		for i := range d.shards {
			d.stepShard(i, t)
		}
	} else {
		//datawa:locked(mu) the epoch lock is held across the whole parallel region; each worker touches only its own shard slot
		par.Do(len(d.shards), fan, func(i int) { d.stepShard(i, t) })
		d.fanned.Add(1)
	}
	if o := d.ob; o.spans != nil {
		for i, p := range d.probe {
			detail := fmt.Sprintf("workers=%d open=%d", p.workers, p.open)
			if d.gov != nil {
				detail += fmt.Sprintf(" tier=%d", d.tiered[i].tier())
			}
			o.cur = append(o.cur, obs.Span{
				Name: "step", Track: 1 + i, N: p.open, Detail: detail,
				StartNS: p.start.Sub(o.base).Nanoseconds(), DurNS: p.wall.Nanoseconds(),
			})
		}
	}
	return len(d.shards), true
}

// stepShard steps shard i and fills its probe: two clock reads a shard.
//
//datawa:locked(mu)
func (d *Dispatcher) stepShard(i int, t float64) {
	p := &d.probe[i]
	p.workers, p.open = d.shards[i].Workers(), d.shards[i].OpenTasks()
	p.start = time.Now() //datawa:wallclock per-shard Step wall: the next epoch's fan-out decision, span timing and governor cost
	d.shards[i].Step(t)
	p.wall = time.Since(p.start) //datawa:wallclock per-shard Step wall: the next epoch's fan-out decision, span timing and governor cost
}

// applyDueLocked folds every drained event with Time ≤ t into shard state,
// in (Time, ingest order): it merges the epoch's due batch with the pending
// heap's entries that have come due, so an event drained due costs a read and
// only the future-dated ones pay a heap pop. On equal Time the heap entry
// goes first, as its ingest order is the lower. Cross-kind order within a
// batch is immaterial (admissions touch disjoint state until the Step that
// follows, which is why a trace replay matches the engine's
// workers-then-tasks batching); what matters is that events about the *same*
// entity — an offline followed by a re-online, a submit followed by a
// cancel — apply in the order produced. It is the admission stage; its count
// is the events that came due. It leaves the due batch empty.
//
//datawa:locked(mu)
func (d *Dispatcher) applyDueLocked(t float64) (int, bool) {
	submits, due := 0, 0
	for next := 0; ; due++ {
		var pe pendingEvent
		heapDue := len(d.pending.items) > 0 && d.pending.items[0].ev.Time <= t
		switch {
		case next < len(d.due) && (!heapDue || pendingBefore(&d.due[next], &d.pending.items[0])):
			pe = d.due[next]
			next++
		case heapDue:
			pe = d.pending.pop()
		default:
			clear(d.due) // drop the Task/Worker pointers for GC
			d.due = d.due[:0]
			return due, true
		}
		if pe.requeued { // a deferred submit comes due, unless a cancel withdrew it
			if d.waiting[pe.ev.Task.ID] != pe.ev.Task {
				continue
			}
			delete(d.waiting, pe.ev.Task.ID)
		}
		if c := d.cfg.Admission.MaxSubmitsPerEpoch; c > 0 && pe.ev.Kind == KindTaskSubmit {
			// Backpressure on the ingest path: past the per-epoch budget,
			// due submits defer one epoch (requeued at t+Step, so the loop
			// will not see them again this tick) or shed when too close to
			// their deadline for a deferral to ever be served.
			if submits >= c {
				// The capped submit bypasses applyLocked, so run the
				// first-application effects (forecast feed, ledger open)
				// here — without this a capped-then-deferred task would
				// never reach the forecaster.
				d.noteSubmitLocked(pe.ev.Task, pe.requeued)
				d.deferOrShedLocked(pe.ev.Task, t, "submit-cap")
				continue
			}
			submits++
		}
		d.applyLocked(pe.ev, t, pe.requeued)
	}
}

// noteSubmitLocked runs a task submit's first-application side effects: the
// global forecast feed and the ledger's chain-opening Submitted record. A
// requeued (deferred/displaced) submit already ran them on first application.
//
//datawa:locked(mu)
func (d *Dispatcher) noteSubmitLocked(s *core.Task, requeued bool) {
	if s == nil || requeued {
		return
	}
	d.cfg.Demand.Publish(s)
	d.recordTask(s.ID, obs.Submitted, -1, 0, "")
}

//datawa:locked(mu)
func (d *Dispatcher) applyLocked(ev Event, t float64, requeued bool) {
	ok := false
	switch ev.Kind {
	case KindWorkerOnline:
		if ev.Worker == nil {
			break
		}
		// A second online for a still-active id is rejected rather than
		// rebound: rebinding would orphan the live copy in its shard.
		if _, dup := d.workerShardLocked(ev.Worker.ID); dup {
			break
		}
		if ok = d.shards[d.shardOf(ev.Worker.Loc)].AddWorker(ev.Worker, t); ok {
			// A longer reach widens the halo band: mark a re-replication
			// pass (run once, before this tick's Step) so already-open
			// boundary tasks become visible to the new worker's shard.
			if d.smap != nil && ev.Worker.Reach > d.maxReach {
				d.maxReach = ev.Worker.Reach
				d.reGhost = true
			}
		}
	case KindTaskSubmit:
		if ev.Task == nil {
			break
		}
		// Two live tasks with one id would let a shard's plan assign the id
		// twice (fatal) or make cancel/ownership ambiguous across shards.
		if _, dup := d.ownerLocked(ev.Task.ID); dup {
			break
		}
		// First-application side effects: the demand feed takes every
		// submit, expired-on-arrival included, and the ledger chain opens.
		d.noteSubmitLocked(ev.Task, requeued)
		// Admission control: a submit hitting a full open pool displaces
		// the most deferrable open task, or itself defers or sheds — see
		// AdmissionConfig. The ≥ comparison is deliberate: at exactly
		// MaxOpenTasks the pool is full and the newcomer must displace or
		// yield.
		if c := d.cfg.Admission.MaxOpenTasks; c > 0 && d.openLocked() >= c {
			if !d.admitOverCapLocked(ev.Task, t) {
				ok = true // consumed: deferred or shed, both accounted
				break
			}
		}
		shard := d.shardOf(ev.Task.Loc)
		if d.shards[shard].AddTask(ev.Task, t) {
			d.recordTask(ev.Task.ID, obs.Admitted, shard, 0, "")
			if d.cfg.Admission.MaxOpenTasks > 0 {
				d.pushVictimLocked(victim{exp: ev.Task.Exp, id: ev.Task.ID, task: ev.Task, shard: shard})
			}
			d.replicateLocked(ev.Task, shard, t)
		} else if ev.Task.Exp <= t {
			d.recordTask(ev.Task.ID, obs.Expired, shard, 0, "expired on arrival")
		}
		// Expired-on-arrival still changed state (it counted as expired),
		// so a rejected admission here is applied either way.
		ok = true
	case KindWorkerOffline:
		if shard, known := d.workerShardLocked(ev.ID); known {
			ok = d.shards[shard].RemoveWorker(ev.ID, t)
		}
	case KindTaskCancel:
		if shard, known := d.ownerLocked(ev.ID); known {
			ok = d.shards[shard].CancelTask(ev.ID)
			d.recordTask(ev.ID, obs.Cancelled, shard, 0, "withdrawn by requester")
			d.dropCopiesLocked(ev.ID, shard)
		} else if _, ok = d.waiting[ev.ID]; ok { // withdrawn while it waited deferred
			delete(d.waiting, ev.ID)
			d.withdrawn++
			d.recordTask(ev.ID, obs.Cancelled, -1, 0, "withdrawn by requester while deferred")
		}
	case KindPosition:
		// UpdateWorkerPos reports an unknown id, and at most one shard holds
		// the worker: one lookup a shard until it is found.
		for _, m := range d.shards {
			if ok = m.UpdateWorkerPos(ev.ID, ev.Loc); ok {
				break
			}
		}
	}
	if ok {
		d.applied.Add(1)
	} else {
		d.unroutable.Add(1)
	}
}

// replicateLocked installs ghost replicas of an owned open task into every
// other shard whose territory its halo disk overlaps. The halo radius is the
// largest reach of any admitted worker (maxReach), and its guarantee is by
// territory: the task is visible in every shard owning a cell within maxReach
// of it. A worker stays in the shard it came online in, also after it travels
// out of that shard's territory, so it sees every task its disc covers while
// it stands in the territory, and fewer the farther it strays. The radius is
// not bounded by the task's time left (DistWithin(Exp − t)): a travelled
// worker can reach a task whose time-left disc misses its shard's territory
// (TestGhostServesTravelledWorker; docs/BENCHMARKS.md, "Dead ends"). With one
// shard, or before any worker is admitted, there is nothing to replicate.
// Already-replicated shards are skipped (AddGhost rejects duplicates), so the
// call is idempotent — re-running it after the radius grows adds only the
// missing replicas. The disk is centered on the task's location clamped to the
// region: ownership routing clamps off-map points (Grid.CellOf snaps stray
// GPS fixes to boundary cells), so the halo query must reason from the same
// snapped geometry — an exact off-region disk could overlap no cell at all
// and leave a boundary worker blind to a reachable off-map task.
//
//datawa:locked(mu)
//datawa:hotpath
func (d *Dispatcher) replicateLocked(s *core.Task, owner int, t float64) {
	if d.smap == nil || d.maxReach <= 0 {
		return
	}
	p := d.cfg.Grid.Region.Clamp(s.Loc)
	for _, g := range d.smap.shardsInDisk(p, d.maxReach, owner) {
		if d.shards[g].AddGhost(s, t) {
			d.ghostCopies++
			d.recordTask(s.ID, obs.GhostReplicated, g, 0, "")
		}
	}
}

// dropCopiesLocked removes a task from every shard's open pool but keep's
// and reports how many copies left. Once a task is committed, withdrawn or
// displaced anywhere, its other copies must leave their pools before the
// next planning instant, or a second shard could assign it. With one shard
// there is no other copy.
//
//datawa:locked(mu)
func (d *Dispatcher) dropCopiesLocked(id, keep int) int {
	if len(d.shards) == 1 {
		return 0
	}
	n := 0
	for i, m := range d.shards {
		if i != keep && m.DropTask(id) {
			n++
		}
	}
	return n
}

// reGhostLocked re-evaluates replication for every open owned task — the
// reghost stage, after the epoch's events applied, running only when the
// halo radius grew (d.reGhost): tasks submitted before a long-reach
// worker came online become visible to its shard at the same planning instant
// that admits the worker. Tasks are walked in ascending id order: replication
// appends to each shard's planning pool, so the order must be a pure function
// of the event stream. A task's owner is the shard its location routes to.
//
//datawa:locked(mu)
func (d *Dispatcher) reGhostLocked(t float64) (int, bool) {
	if !d.reGhost {
		return 0, false
	}
	d.reGhost = false
	var owned []*core.Task
	for _, m := range d.shards {
		owned = m.AppendOwned(owned)
	}
	slices.SortFunc(owned, func(a, b *core.Task) int { return cmp.Compare(a.ID, b.ID) })
	for _, s := range owned {
		d.replicateLocked(s, d.shardOf(s.Loc), t)
	}
	return 0, true
}

// commit is one contested commit of an arbitration round: the shard that made
// it and its change-log entry. lost marks a commit arbitration retracts.
type commit struct {
	shard int
	c     stream.Change
	lost  bool
}

// byTask orders commits by task id: sorted stably, each task's commits form
// one run and keep their shard and then log order.
func byTask(a, b commit) int { return cmp.Compare(a.c.Task, b.c.Task) }

// arbitrateLocked is the arbitration stage, the one place the dispatcher
// reads the machines' change logs. A replicated task can be committed by
// several shards in one epoch; one commit may stand. A commit is contested
// when it is a ghost's, or the owner's of a task a ghost also committed in
// the same round. A contested task's winner is the earliest arrival (worker
// id, then shard id break ties — a pure function of the merged commit set,
// so the outcome is identical at every parallelism level) and its losers
// are retracted. Every committed task's other copies leave their shards
// before any retraction. A retracted worker resumes the rest of its plan at
// once, which can commit afresh — hence the rounds; each consumes plan
// entries, so the loop terminates. Each round ledgers the entries it leaves:
// assignments and expiries (cancels and sheds were ledgered where applied).
// It returns the number of rounds that settled a replicated task. A round
// keeps its commits in dispatcher scratch (ghosted, contested), so it
// allocates nothing; ledger causes and span details are formatted only when
// the ledger or span recording is on.
//
//datawa:locked(mu)
//datawa:hotpath
func (d *Dispatcher) arbitrateLocked(t float64) (int, bool) {
	rounds := 0
	for {
		round0 := time.Now() //datawa:wallclock arbitration-round span timing, observability only
		// ghosted lists the tasks of the round's ghost commits: a ghost
		// commit marks its task contested before the owner's commit, which
		// may sit in an earlier shard, is read.
		ghosted := d.ghosted[:0]
		for i, m := range d.shards {
			d.changes[i] = m.TakeChanges(d.changes[i][:0])
			for _, c := range d.changes[i] {
				if c.Ghost {
					ghosted = append(ghosted, c.Task)
				}
			}
		}
		slices.Sort(ghosted)
		d.ghosted = ghosted
		// contested gathers the contested tasks' commits, in shard and then
		// log order; settled counts the uncontested commits of replicated
		// tasks.
		contested, settled := d.contested[:0], 0
		for i, cs := range d.changes {
			for _, c := range cs {
				if c.Kind == stream.TaskAssigned && len(ghosted) > 0 {
					if _, ok := slices.BinarySearch(ghosted, c.Task); ok {
						contested = append(contested, commit{shard: i, c: c})
						continue
					}
				}
				switch c.Kind {
				case stream.TaskAssigned:
					if d.dropCopiesLocked(c.Task, i) > 0 {
						settled++
					}
					d.recordTask(c.Task, obs.Assigned, i, c.Worker, "")
				case stream.TaskExpired:
					d.recordTask(c.Task, obs.Expired, i, 0, "")
				}
			}
		}
		d.contested = contested
		if len(contested) == 0 && settled == 0 {
			return rounds, true
		}
		rounds++
		// Award each contested task, in ascending id, and drop every other
		// copy. All drops happen before any retraction: a retracted worker
		// resumes its plan immediately, and if a task later in this round
		// still had an open copy the resume could commit it — a commit
		// outside its own arbitration group, i.e. a double assignment.
		slices.SortStableFunc(contested, byTask)
		tasks, losers := settled, 0
		for from := 0; from < len(contested); {
			to := from + 1
			for to < len(contested) && contested[to].c.Task == contested[from].c.Task {
				to++
			}
			losers += d.awardLocked(contested[from:to])
			tasks++
			from = to
		}
		// Retract the losers. Resumed workers can only commit tasks not
		// arbitrated yet — fresh commits land in the machines' change logs
		// and the next round collects them.
		retract0 := time.Now() //datawa:wallclock retraction span timing, observability only
		for i := range contested {
			if cm := &contested[i]; cm.lost && d.shards[cm.shard].RetractCommit(cm.c.Worker, cm.c.Task, t) {
				d.retractions++
			}
		}
		if d.ob.spans != nil {
			d.spanRoundLocked(rounds, round0, retract0, tasks, losers)
		}
	}
}

// awardLocked settles one contested task from its commits, in shard and then
// log order: it picks the winner, marks every other commit lost, ledgers the
// losers' retractions before the winner's assignment (so the chain stays
// well-formed: nothing after a terminal state) and drops the task's other
// copies. The retractions themselves run after the whole round is awarded.
// It returns the number of losers.
//
//datawa:locked(mu)
//datawa:hotpath
func (d *Dispatcher) awardLocked(cms []commit) int {
	best := 0
	for j := 1; j < len(cms); j++ {
		a, b := &cms[j], &cms[best]
		if a.c.Arrive != b.c.Arrive {
			if a.c.Arrive < b.c.Arrive {
				best = j
			}
			continue
		}
		if a.c.Worker != b.c.Worker {
			if a.c.Worker < b.c.Worker {
				best = j
			}
			continue
		}
		if a.shard < b.shard {
			best = j
		}
	}
	for j := range cms {
		cms[j].lost = j != best
	}
	win := &cms[best]
	if len(cms) > 1 {
		d.conflicts++
	}
	if win.c.Ghost {
		d.ghostHits++
	}
	if d.ob.ledger != nil {
		d.ledgerAwardLocked(cms, best)
	}
	d.dropCopiesLocked(win.c.Task, win.shard)
	return len(cms) - 1
}

// ledgerAwardLocked ledgers one contested task's award: a Retracted entry for
// every losing commit, then the winner's Assigned with its cause.
//
//datawa:locked(mu)
func (d *Dispatcher) ledgerAwardLocked(cms []commit, best int) {
	win := cms[best]
	for j, cm := range cms {
		if j != best {
			d.recordTask(cm.c.Task, obs.Retracted, cm.shard, cm.c.Worker,
				fmt.Sprintf("lost arbitration to worker %d", win.c.Worker))
		}
	}
	cause := ""
	switch {
	case len(cms) > 1 && win.c.Ghost:
		cause = fmt.Sprintf("ghost hit; won arbitration (%d commits)", len(cms))
	case len(cms) > 1:
		cause = fmt.Sprintf("won arbitration (%d commits)", len(cms))
	case win.c.Ghost:
		cause = "ghost hit"
	}
	d.recordTask(win.c.Task, obs.Assigned, win.shard, win.c.Worker, cause)
}

// spanRoundLocked records one arbitration round's spans: the retraction, when
// the round had losers, and the round itself.
//
//datawa:locked(mu)
func (d *Dispatcher) spanRoundLocked(round int, round0, retract0 time.Time, tasks, losers int) {
	if losers > 0 {
		d.ob.span("retract", 0, retract0, losers, fmt.Sprintf("round=%d", round))
	}
	d.ob.span("arbitration-round", 0, round0, tasks,
		fmt.Sprintf("round=%d tasks=%d losers=%d", round, tasks, losers))
}

// forecastLocked asks the demand feed for a refresh and hands each shard the
// virtuals for the cells it owns. The feed holds the complete published
// stream — as the engine's does — so sharding does not dilute the demand
// counts the model was trained on. It reports how many virtual tasks were
// materialized and whether a refresh ran. The split by shard is dispatcher
// scratch (byShard), which each machine copies.
//
//datawa:locked(mu)
func (d *Dispatcher) forecastLocked(t float64) (int, bool) {
	virtuals, ok := d.cfg.Demand.Refresh(t)
	if !ok {
		return 0, false
	}
	for _, v := range virtuals {
		shard := d.shardOf(v.Loc)
		d.byShard[shard] = append(d.byShard[shard], v)
	}
	for i, m := range d.shards {
		m.SetVirtuals(d.byShard[i])
		clear(d.byShard[i]) // the machine copied them; hold no task past the refresh
		d.byShard[i] = d.byShard[i][:0]
	}
	return len(virtuals), true
}
