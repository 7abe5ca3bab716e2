package dispatch

import (
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wire"
)

// StreamSummary accounts one streamed ingest session: how many events were
// accepted onto the queue, how many were rejected by validation, and how
// many wire frames the session carried.
type StreamSummary struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Frames   int64 `json:"frames"`
	// Time is the logical instant of the next epoch when the session ended.
	Time float64 `json:"time"`
}

// IngestBatch validates and enqueues one decoded wire batch, returning how
// many events were accepted and rejected. Workers and tasks are materialized
// into two batch-sized slabs, so admitting N entities costs two allocations
// instead of N — the dispatcher retains pointers into the slabs exactly as
// it would retain individually-boxed entities. Safe for concurrent use, like
// Ingest; the accepted events enter the inbox under one lock per batch, in
// batch order.
//
// A wire event is rejected when its id does not fit an int, its kind is
// unknown, a task submit's id is outside the client range (clientTaskID), or
// the event it materializes is not well formed (wellFormed, the rule Ingest
// and the HTTP endpoints apply). An accepted task submit with id 0 draws a
// server-assigned id, and an event with time 0 is stamped with the next
// epoch instant, so clients that only relay "now" events never have to track
// the logical clock. Rejected events are counted, never partially applied:
// one leaves at most an unused slab slot behind.
//
//datawa:hotpath
func (d *Dispatcher) IngestBatch(events []wire.Event) (accepted, rejected int) {
	var nw, nt int
	for i := range events {
		switch events[i].Kind {
		case wire.WorkerOnline:
			nw++
		case wire.TaskSubmit:
			nt++
		}
	}
	var workers []core.Worker
	var tasks []core.Task
	if nw > 0 {
		//datawa:alloc one amortized slab per batch; sized exactly, handed to the shards wholesale
		workers = make([]core.Worker, 0, nw)
	}
	if nt > 0 {
		//datawa:alloc one amortized slab per batch; sized exactly, handed to the shards wholesale
		tasks = make([]core.Task, 0, nt)
	}
	now := d.Now()
	d.inMu.Lock()
	for i := range events {
		ev := &events[i]
		id := int(ev.ID)
		if int64(id) != ev.ID {
			rejected++
			continue
		}
		in := Event{Time: ev.Time}
		if in.Time == 0 {
			in.Time = now
		}
		switch ev.Kind {
		case wire.WorkerOnline:
			workers = append(workers, core.Worker{
				ID: id, Loc: geo.Point{X: ev.X, Y: ev.Y},
				Reach: ev.Reach, On: ev.On, Off: ev.Off,
			})
			in.Kind, in.Worker = KindWorkerOnline, &workers[len(workers)-1]
		case wire.TaskSubmit:
			if !clientTaskID(ev.ID) {
				rejected++
				continue
			}
			tasks = append(tasks, core.Task{
				ID: id, Loc: geo.Point{X: ev.X, Y: ev.Y},
				Pub: ev.Pub, Exp: ev.Exp, Cell: -1,
			})
			in.Kind, in.Task = KindTaskSubmit, &tasks[len(tasks)-1]
		case wire.WorkerOffline:
			in.Kind, in.ID = KindWorkerOffline, id
		case wire.TaskCancel:
			in.Kind, in.ID = KindTaskCancel, id
		case wire.Position:
			in.Kind, in.ID, in.Loc = KindPosition, id, geo.Point{X: ev.X, Y: ev.Y}
		default:
			rejected++
			continue
		}
		if !wellFormed(&in) {
			rejected++
			continue
		}
		if in.Task != nil && id == 0 {
			in.Task.ID = d.nextSyntheticID()
		}
		d.inbox = append(d.inbox, in)
		accepted++
	}
	d.inMu.Unlock()
	d.ingested.Add(int64(accepted))
	return accepted, rejected
}

// ConsumeStream ingests a stream of binary wire frames from r until EOF. It
// is the engine behind POST /v1/stream: one request body carries any number
// of frames, each decoded into a reused buffer and handed to IngestBatch. An
// empty stream and a clean EOF on a frame boundary return nil. A protocol
// violation (protocolError) or a read failure stops the session and returns
// the error alongside the counts of the frames before it.
func (d *Dispatcher) ConsumeStream(r io.Reader) (StreamSummary, error) {
	var sum StreamSummary
	dec := wire.NewDecoder(r)
	for {
		batch, err := dec.Next()
		if err != nil {
			sum.Time = d.Now()
			if err == io.EOF {
				return sum, nil
			}
			return sum, err
		}
		sum.Frames++
		a, rej := d.IngestBatch(batch)
		sum.Accepted += int64(a)
		sum.Rejected += int64(rej)
	}
}

// protocolError reports whether a ConsumeStream error is a wire-protocol
// violation, which the client caused and gets 400 for, as opposed to a
// failure reading the body, which gets 500.
func protocolError(err error) bool {
	return errors.Is(err, wire.ErrMagic) || errors.Is(err, wire.ErrVersion) ||
		errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrTooLarge) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}
