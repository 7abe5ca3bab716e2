package dispatch

// The ingest queue has two parts. Producers append to the inbox under its
// own small lock (inMu), never the epoch lock; the epoch's drain stage swaps
// the inbox for a spare buffer and pushes what it held onto the pending
// heap, stamping each event with the next ingest order. The heap orders
// events by (Time, ingest order), so a single producer's stream applies in
// exactly the order it was ingested, and a replay is byte-identical to
// pushing the same stream straight onto the heap under the epoch lock (the
// queue-shape tests keep that serial ingest as their oracle).

// drainLocked moves the inbox onto the pending heap, returning how many
// events it moved.
//
//datawa:locked(mu)
//datawa:hotpath
func (d *Dispatcher) drainLocked() int {
	d.inMu.Lock()
	in := d.inbox
	d.inbox = d.spare
	d.inMu.Unlock()
	for i := range in {
		d.pendLocked(in[i], false)
	}
	clear(in) // drop the Task/Worker pointers for GC
	d.spare = in[:0]
	return len(in)
}

// pendLocked pushes an event onto the pending heap under the next ingest
// order. requeued marks an admission deferral (see pendingEvent).
//
//datawa:locked(mu)
func (d *Dispatcher) pendLocked(ev Event, requeued bool) {
	d.seq++
	d.pending.push(pendingEvent{ev: ev, seq: d.seq, requeued: requeued})
}

// backlogLocked is the ingest backlog: events in the inbox plus events
// drained but not yet due.
//
//datawa:locked(mu)
func (d *Dispatcher) backlogLocked() int {
	d.inMu.Lock()
	n := len(d.inbox)
	d.inMu.Unlock()
	return n + len(d.pending.items)
}

// pendingEvent orders drained events by effect time, ingest order breaking
// ties, so due extraction is logarithmic in the backlog size.
type pendingEvent struct {
	ev  Event
	seq int64
	// requeued marks an admission-control deferral: the event already went
	// through first-application side effects (forecast feed) once.
	requeued bool
}

// pendingBefore orders the pending heap by effect time, ingest order
// breaking ties.
func pendingBefore(a, b *pendingEvent) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}
