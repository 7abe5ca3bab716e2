package dispatch

import (
	"cmp"
	"slices"
)

// The ingest queue has three parts. Producers append to the inbox under its
// own small lock (inMu), never the epoch lock. The drain stage of the epoch
// at t swaps the inbox for a spare buffer and stamps each event it held with
// the next ingest order. What the event's own Time says decides where it
// goes: an event due now (Time ≤ t) is appended to the epoch's due batch, and
// a later one is pushed onto the pending heap, as are admission requeues at
// t+Step. Admission merges the due batch with the heap entries that have come
// due, in (Time, ingest order), so a single producer's stream applies in
// exactly the order it was ingested, and a replay is byte-identical to pushing
// the same stream straight onto the heap under the epoch lock (the queue-shape
// tests keep that serial ingest as their oracle). Clients send events when
// they are due, so the common case costs an append and a read; a future-dated
// event keeps its logarithmic heap path.

// drainLocked moves the inbox into the queue as of the epoch at t: due events
// onto the due batch, later ones onto the pending heap. It returns how many
// events it moved. The batch is left in (Time, ingest order); it is sorted
// only when an event arrived behind an earlier one's Time.
//
//datawa:locked(mu)
//datawa:hotpath
func (d *Dispatcher) drainLocked(t float64) int {
	d.inMu.Lock()
	in := d.inbox
	d.inbox = d.spare
	d.inMu.Unlock()
	sorted := true
	for i := range in {
		ev := in[i]
		if ev.Time > t {
			d.pendLocked(ev, false)
			continue
		}
		d.seq++
		if n := len(d.due); n > 0 && ev.Time < d.due[n-1].ev.Time {
			sorted = false
		}
		d.due = append(d.due, pendingEvent{ev: ev, seq: d.seq})
	}
	if !sorted {
		// Appended in ingest order, so a stable sort by Time alone
		// yields (Time, ingest order).
		slices.SortStableFunc(d.due, byTime)
	}
	clear(in) // drop the Task/Worker pointers for GC
	d.spare = in[:0]
	return len(in)
}

// byTime orders pending events by effect time alone.
func byTime(a, b pendingEvent) int { return cmp.Compare(a.ev.Time, b.ev.Time) }

// pendLocked pushes a not-yet-due event onto the pending heap under the next
// ingest order: a future-dated event at drain, or an admission deferral at
// t+Step (requeued, see pendingEvent).
//
//datawa:locked(mu)
func (d *Dispatcher) pendLocked(ev Event, requeued bool) {
	d.seq++
	d.pending.push(pendingEvent{ev: ev, seq: d.seq, requeued: requeued})
}

// backlogLocked is the ingest backlog: events in the inbox plus events
// drained but not yet applied.
//
//datawa:locked(mu)
func (d *Dispatcher) backlogLocked() int {
	d.inMu.Lock()
	n := len(d.inbox)
	d.inMu.Unlock()
	return n + len(d.due) + len(d.pending.items)
}

// pendingEvent is a drained event stamped with its ingest order. Effect time,
// ingest order breaking ties, is the order admission applies events in.
type pendingEvent struct {
	ev  Event
	seq int64
	// requeued marks an admission-control deferral: the event already went
	// through first-application side effects (forecast feed) once.
	requeued bool
}

// pendingBefore orders pending events by effect time, ingest order breaking
// ties.
func pendingBefore(a, b *pendingEvent) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}
