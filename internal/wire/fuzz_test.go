package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the frame decoder. The invariants:
// never panic, never report consuming more bytes than were offered, and on
// success re-encode to a frame that decodes to the same batch (decode is a
// left inverse of encode on its image). Truncated, oversized, and version-
// skewed inputs must come back as errors, not crashes.
func FuzzWireDecode(f *testing.F) {
	valid, _ := AppendFrame(nil, []Event{
		{Time: 1, Kind: WorkerOnline, ID: 4, X: 1, Y: 2, Reach: 2, On: 1, Off: 500},
		{Time: 1, Kind: TaskSubmit, ID: 9, X: 3, Y: 1, Pub: 1, Exp: 90},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-4])                                             // truncated payload
	f.Add(append([]byte{}, valid[:3]...))                                   // truncated header
	f.Add([]byte{magic0, magic1, 2, 0})                                     // version skew
	f.Add([]byte{magic0, magic1, Version, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge declared length
	empty, _ := AppendFrame(nil, nil)
	f.Add(empty)
	f.Add(append(append([]byte{}, valid...), valid...)) // back-to-back frames

	f.Fuzz(func(t *testing.T, data []byte) {
		events, n, err := DecodeFrame(data, nil)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v but n=%d", err, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Whatever decoded must survive a round trip: re-encode and decode
		// back to the identical batch.
		frame, err := AppendFrame(nil, events)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		again, _, err := DecodeFrame(frame, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-decode: %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed across re-encode: %+v vs %+v", i, events[i], again[i])
			}
		}
	})
}

// FuzzWireRoundTrip builds a batch from fuzzed primitive fields, encodes it,
// and requires decode to reproduce it exactly — both through DecodeFrame and
// through the streaming Decoder under worst-case 1-byte reads. Non-finite
// floats must be rejected at encode time, never silently mangled.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(1), 0.0, 1.0, 2.0, 2.0, 0.0, 500.0, uint8(3))
	f.Add(uint8(2), int64(-9), 5.5, -1.0, 4.0, 0.0, 5.5, 100.0, uint8(1))
	f.Add(uint8(4), int64(1<<40), 1e9, -1e9, 0.0, 0.0, 0.0, 0.0, uint8(7))
	f.Add(uint8(200), int64(0), math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, uint8(1))

	f.Fuzz(func(t *testing.T, kind uint8, id int64, tm, a, b, c, d, e float64, nCopies uint8) {
		ev := Event{
			Time: tm, Kind: Kind(kind), ID: id,
			X: a, Y: b, Reach: c, On: d, Off: e, Pub: d, Exp: e,
		}
		// Zero the fields the codec does not carry for this kind, so the
		// equality check below compares only what the wire promises.
		switch ev.Kind {
		case WorkerOnline:
			ev.Pub, ev.Exp = 0, 0
		case TaskSubmit:
			ev.Reach, ev.On, ev.Off = 0, 0, 0
		case Position:
			ev.Reach, ev.On, ev.Off, ev.Pub, ev.Exp = 0, 0, 0, 0, 0
		case WorkerOffline, TaskCancel:
			ev.X, ev.Y, ev.Reach, ev.On, ev.Off, ev.Pub, ev.Exp = 0, 0, 0, 0, 0, 0, 0
		}
		batch := make([]Event, int(nCopies%32)+1)
		for i := range batch {
			batch[i] = ev
			batch[i].ID = id + int64(i)
		}
		frame, err := AppendFrame(nil, batch)
		if err != nil {
			// Encode must reject exactly the batches the decoder would:
			// unknown kinds and non-finite floats.
			if ev.Kind < numKinds && eventFinite(&ev) {
				t.Fatalf("encode rejected a valid batch: %v", err)
			}
			return
		}
		got, n, err := DecodeFrame(frame, nil)
		if err != nil {
			t.Fatalf("decode of encoded frame: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if len(got) != len(batch) {
			t.Fatalf("decoded %d events, want %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i] {
				t.Fatalf("event %d: got %+v want %+v", i, got[i], batch[i])
			}
		}
		// The streaming decoder must agree even when the frame arrives one
		// byte at a time.
		dec := NewDecoder(iotaReader{r: bytes.NewReader(frame)})
		streamed, err := dec.Next()
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		for i := range batch {
			if streamed[i] != batch[i] {
				t.Fatalf("stream event %d: got %+v want %+v", i, streamed[i], batch[i])
			}
		}
	})
}

// uvarint3 sanity: the fixed-width length prefix must decode as a standard
// uvarint for every representable payload size.
func TestPutUvarint3(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, MaxFrameBytes, 1<<21 - 1} {
		var b [3]byte
		putUvarint3(b[:], v)
		got, n := binary.Uvarint(b[:])
		if got != v || n != 3 {
			t.Fatalf("putUvarint3(%d): decoded %d (n=%d)", v, got, n)
		}
	}
}
