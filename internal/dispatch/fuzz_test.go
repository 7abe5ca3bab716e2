package dispatch

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/wire"
)

// FuzzIngestBatch is the way in as a client sees it: arbitrary bytes go
// through wire.DecodeFrame, whatever decodes goes to IngestBatch on a
// three-shard dispatcher with the task ledger on, and a few epochs run. The
// invariants: nothing panics, every decoded event is either accepted or
// rejected, and the ledger audits clean but for the one issue a live task
// has, no terminal state yet, on a task still open. The seeds are
// FuzzWireDecode's, one frame of due, past-dated, tied and future-dated
// events, one that submits a task id again after it was assigned, and one
// frame per poison event of the ingest tests.
func FuzzIngestBatch(f *testing.F) {
	valid, err := wire.AppendFrame(nil, []wire.Event{
		{Time: 1, Kind: wire.WorkerOnline, ID: 4, X: 1, Y: 2, Reach: 2, On: 1, Off: 500},
		{Time: 1, Kind: wire.TaskSubmit, ID: 9, X: 3, Y: 1, Pub: 1, Exp: 90},
	})
	if err != nil {
		f.Fatal(err)
	}
	magic0, magic1 := valid[0], valid[1]
	f.Add(valid)
	f.Add(valid[:len(valid)-4])                                                  // truncated payload
	f.Add(append([]byte{}, valid[:3]...))                                        // truncated header
	f.Add([]byte{magic0, magic1, 2, 0})                                          // version skew
	f.Add([]byte{magic0, magic1, wire.Version, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge declared length
	empty, _ := wire.AppendFrame(nil, nil)
	f.Add(empty)
	f.Add(append(append([]byte{}, valid...), valid...)) // back-to-back frames
	// Due, past-dated, tied and future-dated times in one frame.
	mixed, err := wire.AppendFrame(nil, []wire.Event{
		{Time: 2, Kind: wire.WorkerOnline, ID: 4, X: 1, Y: 2, Reach: 2, On: 2, Off: 500},
		{Time: -1, Kind: wire.TaskSubmit, ID: 9, X: 3, Y: 1, Pub: -1, Exp: 90},
		{Time: 0, Kind: wire.WorkerOnline, ID: 5, X: 2, Y: 2, Reach: 2, On: 0, Off: 500},
		{Time: 0, Kind: wire.TaskSubmit, ID: 10, X: 2, Y: 1, Pub: 0, Exp: 90},
		{Time: 0, Kind: wire.TaskCancel, ID: 10},
		{Time: 2, Kind: wire.Position, ID: 4, X: 3, Y: 1},
		{Time: 1.5, Kind: wire.TaskSubmit, ID: 11, X: 1, Y: 1, Pub: 1.5, Exp: 90},
		{Time: -0.5, Kind: wire.WorkerOffline, ID: 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	// Task 24 is assigned in epoch 0 and submitted again, already expired, in
	// epoch 1: the ledger holds a chain per incarnation of the id.
	reused, err := wire.AppendFrame(nil, []wire.Event{
		{Time: 0, Kind: wire.WorkerOnline, ID: 4, X: 1, Y: 1, Reach: 2, On: 0, Off: 500},
		{Time: 0, Kind: wire.TaskSubmit, ID: 24, X: 1.2, Y: 1, Pub: 0, Exp: 90},
		{Time: 1, Kind: wire.TaskSubmit, ID: 24, X: 1.2, Y: 1, Pub: 0, Exp: 0.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reused)
	for _, ev := range append(poisonNonFinite(), poisonStructural()...) {
		f.Add(poisonFrame(f, ev))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, _, err := wire.DecodeFrame(data, nil)
		if err != nil {
			return
		}
		d := New(Config{
			Shards: 3, Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 3, 3), Step: 1,
			NewLadder: oneTier(greedyFactory()),
			Obs:       ObsConfig{LedgerTasks: 1 << 10},
		})
		acc, rej := d.IngestBatch(batch)
		if acc+rej != len(batch) {
			t.Fatalf("accepted %d + rejected %d != %d events", acc, rej, len(batch))
		}
		d.Advance(d.Now() + 4)
		issues, _ := d.LedgerAudit()
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, is := range issues {
			if _, open := d.ownerLocked(is.Task); !open || is.Problem != "no terminal state" {
				t.Fatalf("ledger audit: task %d: %s", is.Task, is.Problem)
			}
		}
	})
}

// poisonFrame encodes ev as a one-event frame even when one of its floats is
// not finite, which AppendFrame refuses to write: that float is encoded as a
// sentinel whose bits are then overwritten. The decoder must reject such a
// frame.
func poisonFrame(tb testing.TB, ev wire.Event) []byte {
	const sentinel = 0x0123456789abcdef
	var bad uint64
	for _, f := range []*float64{&ev.Time, &ev.X, &ev.Y, &ev.Reach, &ev.On, &ev.Off, &ev.Pub, &ev.Exp} {
		if !finite(*f) {
			bad, *f = math.Float64bits(*f), math.Float64frombits(sentinel)
		}
	}
	frame, err := wire.AppendFrame(nil, []wire.Event{ev})
	if err != nil {
		tb.Fatal(err)
	}
	if bad != 0 {
		frame = bytes.Replace(frame,
			binary.LittleEndian.AppendUint64(nil, sentinel), binary.LittleEndian.AppendUint64(nil, bad), 1)
	}
	return frame
}
