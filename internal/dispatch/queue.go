package dispatch

import (
	"sync/atomic"
)

// stampedEvent is an ingest event with its global sequence number, assigned
// at enqueue time by one atomic counter shared across lanes. The pending
// heap orders drained events by (Time, seq), so the heap — not lane
// interleaving — defines the order events apply in; lane routing is purely a
// contention-spreading decision. For a single producer, enqueue-time
// stamping assigns exactly the arrival order, so a replay is byte-identical
// to pushing the same stream straight onto the heap under the epoch lock
// (the queue-shape property tests keep that serial ingest as their oracle).
type stampedEvent struct {
	ev  Event
	seq int64
}

// ingestLane is one bounded MPMC ring (Vyukov-style: a per-slot sequence
// counter arbitrates producers and the consumer without a mutex). Producers
// contend only on this lane's tail CAS; the consumer side (pop) is always
// called under the dispatcher's epoch lock, which serializes consumers and
// publishes head between them.
type ingestLane struct {
	mask  uint64
	slots []laneSlot
	_     [48]byte // keep the hot tail word off the slots' cache lines
	tail  atomic.Uint64
	_     [56]byte
	head  uint64 // consumer cursor; epoch lock serializes access
}

type laneSlot struct {
	seq atomic.Uint64
	ev  stampedEvent
}

func newIngestLane(capacity int) *ingestLane {
	size := 64
	for size < capacity {
		size <<= 1
	}
	l := &ingestLane{mask: uint64(size - 1), slots: make([]laneSlot, size)}
	for i := range l.slots {
		l.slots[i].seq.Store(uint64(i))
	}
	return l
}

// tryPush claims a slot and publishes the event, or reports a full ring.
// Wait-free for the winning producer; a loser retries the CAS. Never blocks:
// the caller handles a full ring by spilling to the pending heap under the
// epoch lock.
//
//datawa:hotpath
func (l *ingestLane) tryPush(se stampedEvent) bool {
	pos := l.tail.Load()
	for {
		s := &l.slots[pos&l.mask]
		diff := int64(s.seq.Load()) - int64(pos)
		switch {
		case diff == 0:
			if l.tail.CompareAndSwap(pos, pos+1) {
				s.ev = se
				s.seq.Store(pos + 1)
				return true
			}
			pos = l.tail.Load()
		case diff < 0:
			// The slot a full ring-turn behind is still unconsumed: full.
			return false
		default:
			// Another producer claimed pos; chase the tail.
			pos = l.tail.Load()
		}
	}
}

// pop takes the oldest published event, or reports an empty (or mid-publish)
// ring. Must be called under the epoch lock.
//
//datawa:hotpath
func (l *ingestLane) pop() (stampedEvent, bool) {
	s := &l.slots[l.head&l.mask]
	if int64(s.seq.Load())-int64(l.head+1) != 0 {
		return stampedEvent{}, false
	}
	se := s.ev
	s.ev = stampedEvent{} // drop the Task/Worker pointers for GC
	s.seq.Store(l.head + l.mask + 1)
	l.head++
	return se, true
}

// depth is the published-but-unconsumed count. Exact under the epoch lock
// (no concurrent consumer); a racing producer can make it stale by one.
//
//datawa:hotpath
func (l *ingestLane) depth() int {
	d := int64(l.tail.Load()) - int64(l.head)
	if d < 0 {
		return 0
	}
	return int(d)
}

// shardedQueue is the ingest queue sharded by grid cell: one lane per shard,
// so producers for different regions never touch the same cache lines;
// events that carry no location (offline, cancel) are routed by id. Total
// capacity ≈ QueueSize, split evenly.
type shardedQueue []*ingestLane

func newShardedQueue(lanes, capacity int) shardedQueue {
	per := capacity / lanes
	if per < 64 {
		per = 64
	}
	q := make(shardedQueue, lanes)
	for i := range q {
		q[i] = newIngestLane(per)
	}
	return q
}

// laneOf routes an event to a lane: located events go to the shard owning
// their cell (the same routing applyLocked will use), id-only events spread
// by id. A pure function of the event, so routing never needs the lock.
//
//datawa:hotpath
func (d *Dispatcher) laneOf(ev Event) *ingestLane {
	q := d.rings
	n := len(q)
	if n == 1 {
		return q[0]
	}
	switch ev.Kind {
	case KindWorkerOnline:
		if ev.Worker != nil {
			return q[d.shardOf(ev.Worker.Loc)]
		}
	case KindTaskSubmit:
		if ev.Task != nil {
			return q[d.shardOf(ev.Task.Loc)]
		}
	case KindPosition:
		return q[d.shardOf(ev.Loc)]
	}
	id := ev.ID
	if id < 0 {
		id = -id
	}
	return q[id%n]
}

//datawa:hotpath
func (q shardedQueue) depth() int {
	n := 0
	for _, l := range q {
		n += l.depth()
	}
	return n
}

// drainLocked moves queued events into the pending heap without blocking,
// returning how many it moved. Lanes carry enqueue-time sequence numbers and
// the heap orders events by (time, sequence), so lane interleaving never
// changes what an epoch sees.
//
//datawa:locked(mu)
func (d *Dispatcher) drainLocked() int {
	n := 0
	for _, l := range d.rings {
		for {
			se, ok := l.pop()
			if !ok {
				break
			}
			d.pending.push(pendingEvent{ev: se.ev, seq: se.seq})
			n++
		}
	}
	return n
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
