package dispatch

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
)

// AdmissionConfig bounds the ingest path. The zero value admits everything —
// the pre-admission behavior. With admission on, a saturated dispatcher sheds
// or defers work by task deadline instead of letting the open pool (and with
// it the epoch latency) grow without bound: the most deferrable work — the
// latest deadlines — yields first, and work too close to its deadline to ever
// be served under the backlog is shed outright. Every decision happens under
// the epoch lock in event order, so the shed/defer stream is a pure function
// of the event stream, like everything else in the dispatcher.
type AdmissionConfig struct {
	// MaxOpenTasks caps the open task pool across all shards. A submit
	// arriving at a full pool either displaces the open task with the
	// latest deadline (when the newcomer's deadline is strictly earlier —
	// urgent work is never locked out by stale backlog) or is itself
	// deferred or shed. Displaced tasks defer when they still have at
	// least DeferSlack of validity left, and shed otherwise; ghost replicas
	// are dropped with their owner and FTA reservations release. 0 = no
	// pool cap.
	MaxOpenTasks int
	// MaxSubmitsPerEpoch caps task admissions per planning epoch — the
	// bounded-queue face of backpressure. Excess due submits are deferred
	// one epoch (or shed when their remaining validity is below
	// DeferSlack). Worker, cancel, and position events are never deferred:
	// they are cheap and dropping them would corrupt liveness accounting.
	// 0 = unbounded.
	MaxSubmitsPerEpoch int
	// DeferSlack is the minimum remaining validity (seconds of logical
	// time) a task needs to be deferred rather than shed (default 2·Step):
	// deferring a task that would expire before it could plausibly be
	// replanned only converts a shed into an expiry one epoch later.
	DeferSlack float64
}

// deferSlackLocked resolves the configured defer slack.
func (d *Dispatcher) deferSlackLocked() float64 {
	if s := d.cfg.Admission.DeferSlack; s > 0 {
		return s
	}
	return 2 * d.cfg.Step
}

// deferOrShedLocked disposes of a task the dispatcher cannot admit right now:
// requeue it one epoch ahead when it still has DeferSlack of validity, shed
// it otherwise. The task is not in any shard; the caller already removed it
// or never admitted it. cause names the admission pressure for the ledger.
//
//datawa:locked(mu)
func (d *Dispatcher) deferOrShedLocked(s *core.Task, t float64, cause string) {
	if s.Exp-t >= d.deferSlackLocked() {
		d.requeueLocked(s, t)
		d.recordTask(s.ID, obs.Deferred, -1, 0, cause)
		return
	}
	d.shedIngest++
	d.recordTask(s.ID, obs.Shed, -1, 0, cause+"; not enough validity to defer")
}

// requeueLocked defers s one epoch: its submit goes back on the pending heap,
// and s waits in d.waiting, where a cancel withdraws it, until that comes due.
//
//datawa:locked(mu)
func (d *Dispatcher) requeueLocked(s *core.Task, t float64) {
	d.pendLocked(Event{Time: t + d.cfg.Step, Kind: KindTaskSubmit, Task: s}, true)
	d.deferred++
	d.waiting[s.ID] = s
}

// admitOverCapLocked decides what gives way when a submit hits a full open
// pool: the newcomer, or the open task with the latest deadline. It returns
// true when the newcomer may be admitted (a victim was displaced), false when
// the newcomer itself was deferred or shed.
func (d *Dispatcher) admitOverCapLocked(s *core.Task, t float64) bool {
	if v, ok := d.peekVictimLocked(); ok && v.exp > s.Exp {
		d.displaceLocked(v, t, fmt.Sprintf("displaced by task %d", s.ID))
		return true
	}
	d.deferOrShedLocked(s, t, "pool full")
	return false
}

// displaceLocked removes an open task from its shard and every replica
// (a task in an FTA plan leaves it too) and either requeues it one epoch
// ahead or sheds it, by the DeferSlack rule. cause names the newcomer that
// pushed the victim out, for the ledger.
//
//datawa:locked(mu)
func (d *Dispatcher) displaceLocked(v victim, t float64, cause string) {
	d.recordTask(v.id, obs.Displaced, v.shard, 0, cause)
	d.dropCopiesLocked(v.id, v.shard)
	if v.task.Exp-t >= d.deferSlackLocked() {
		d.shards[v.shard].DropTask(v.id)
		d.requeueLocked(v.task, t)
		d.recordTask(v.id, obs.Deferred, -1, 0, "requeued after displacement")
		return
	}
	d.shards[v.shard].ShedTask(v.id)
	d.recordTask(v.id, obs.Shed, v.shard, 0, cause+"; not enough validity to defer")
}

// victim is one displacement candidate: an owned open task, keyed by
// deadline. Entries are pushed at admission and validated lazily at peek — a
// task that has since closed, deferred, or changed hands is discarded — and
// compacted away in bulk once they could outnumber the live ones.
type victim struct {
	exp   float64
	id    int
	task  *core.Task
	shard int
}

// victimSlack is how far the victim heap may grow past twice the open pool
// before pushVictimLocked compacts it.
const victimSlack = 64

// pushVictimLocked adds an admitted task to the victim heap. Stale entries
// leave only when they reach the root, so a pool that rarely fills would
// otherwise keep every task ever admitted alive. Once the heap holds more
// than twice the open pool (plus victimSlack), stale and duplicate entries
// outnumber the distinct live ones, and the heap is compacted to those.
// Amortized over the pushes that grew it, a compaction costs O(log n) a push.
//
//datawa:locked(mu)
func (d *Dispatcher) pushVictimLocked(v victim) {
	d.victims.push(v)
	if len(d.victims.items) > 2*d.openLocked()+victimSlack {
		d.compactVictimsLocked()
	}
}

// compactVictimsLocked keeps one entry per live open task. A task deferred
// and readmitted to the same shard has an entry per admission, all live and
// identical, so duplicates go too and the heap ends no larger than the open
// pool. The live entries are sorted most deferrable first, which is a valid
// heap, so peekVictimLocked returns the same live maximum as before.
//
//datawa:locked(mu)
func (d *Dispatcher) compactVictimsLocked() {
	live := d.victims.items[:0]
	for _, v := range d.victims.items {
		if d.liveVictimLocked(v) {
			live = append(live, v)
		}
	}
	clear(d.victims.items[len(live):]) // drop the stale Task pointers for GC
	slices.SortFunc(live, func(a, b victim) int {
		switch {
		case moreDeferrable(&a, &b):
			return -1
		case moreDeferrable(&b, &a):
			return 1
		}
		return 0
	})
	d.victims.items = slices.CompactFunc(live, func(a, b victim) bool { return a.id == b.id })
}

// liveVictimLocked reports whether v is still an open task its shard owns.
// Validation is by pointer identity against the shard's owned task, so a
// closed-and-resubmitted id cannot alias.
//
//datawa:locked(mu)
func (d *Dispatcher) liveVictimLocked(v victim) bool {
	cur, owned := d.shards[v.shard].OwnedTask(v.id)
	return owned && cur == v.task
}

// peekVictimLocked returns the latest-deadline live open task, discarding
// stale heap entries.
//
//datawa:locked(mu)
func (d *Dispatcher) peekVictimLocked() (victim, bool) {
	for len(d.victims.items) > 0 {
		if v := d.victims.items[0]; d.liveVictimLocked(v) {
			return v, true
		}
		d.victims.pop()
	}
	return victim{}, false
}

// moreDeferrable orders the victim heap by (deadline, id), latest first:
// the root is the most deferrable open task.
func moreDeferrable(a, b *victim) bool {
	if a.exp != b.exp {
		return a.exp > b.exp
	}
	return a.id > b.id
}
