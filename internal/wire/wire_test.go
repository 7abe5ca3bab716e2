package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// sampleBatch exercises every kind, negative ids, and zero-valued floats.
func sampleBatch() []Event {
	return []Event{
		{Time: 0, Kind: WorkerOnline, ID: 1, X: 1.25, Y: -2.5, Reach: 2, On: 0, Off: 600},
		{Time: 1, Kind: TaskSubmit, ID: 7, X: 0, Y: 0, Pub: 1, Exp: 61},
		{Time: 2, Kind: Position, ID: 1, X: 3.5, Y: 0.75},
		{Time: 3, Kind: TaskCancel, ID: 7},
		{Time: 4, Kind: WorkerOffline, ID: 1},
		{Time: 5.5, Kind: TaskSubmit, ID: -3, X: -1, Y: 4, Pub: 5.5, Exp: 100},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	batch := sampleBatch()
	frame, err := AppendFrame(nil, batch)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	got, n, err := DecodeFrame(frame, nil)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d events, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], batch[i])
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	frame, err := AppendFrame(nil, nil)
	if err != nil {
		t.Fatalf("AppendFrame(empty): %v", err)
	}
	got, n, err := DecodeFrame(frame, nil)
	if err != nil || n != len(frame) || len(got) != 0 {
		t.Fatalf("empty batch: got %d events, n=%d, err=%v", len(got), n, err)
	}
}

func TestDecodeTwoFramesBackToBack(t *testing.T) {
	a := sampleBatch()[:2]
	b := sampleBatch()[2:]
	frame, _ := AppendFrame(nil, a)
	frame, _ = AppendFrame(frame, b)
	got, n, err := DecodeFrame(frame, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("first frame: %d events, err=%v", len(got), err)
	}
	got, n2, err := DecodeFrame(frame[n:], got[:0])
	if err != nil || len(got) != 4 {
		t.Fatalf("second frame: %d events, err=%v", len(got), err)
	}
	if n+n2 != len(frame) {
		t.Fatalf("frames consumed %d of %d bytes", n+n2, len(frame))
	}
}

func TestDecodeRejects(t *testing.T) {
	valid, _ := AppendFrame(nil, sampleBatch())
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"magic", append([]byte{0x00, 0x01}, valid[2:]...), ErrMagic},
		{"version", flip(valid, 2, 99), ErrVersion},
		{"flags", flip(valid, 3, 0x80), ErrMalformed},
		{"truncated header", valid[:3], ErrShort},
		{"truncated payload", valid[:len(valid)-1], ErrShort},
		{"unknown kind", flip(valid, 8, 200), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.buf, nil); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsOversizedDeclaredPayload(t *testing.T) {
	buf := []byte{magic0, magic1, Version, 0}
	buf = binary.AppendUvarint(buf, MaxFrameBytes+1)
	if _, _, err := DecodeFrame(buf, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: got %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsImplausibleCount(t *testing.T) {
	// A payload declaring 1000 events but holding 2 bytes: the plausibility
	// check must reject it before any buffer growth.
	payload := binary.AppendUvarint(nil, 1000)
	payload = append(payload, 0, 0)
	buf := []byte{magic0, magic1, Version, 0}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	if _, _, err := DecodeFrame(buf, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("implausible count: got %v, want ErrMalformed", err)
	}
}

func TestDecodeRejectsTrailingPayloadBytes(t *testing.T) {
	frame, _ := AppendFrame(nil, sampleBatch()[:1])
	// Extend the declared payload by one byte and append it.
	frame[4]++ // low 7 bits of the fixed-width length uvarint
	frame = append(frame, 0xEE)
	if _, _, err := DecodeFrame(frame, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing bytes: got %v, want ErrMalformed", err)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, ev := range []Event{
		{Kind: TaskSubmit, X: math.NaN()},
		{Kind: WorkerOnline, Reach: math.Inf(1)},
		{Kind: Position, Time: math.Inf(-1)},
	} {
		if _, err := AppendFrame(nil, []Event{ev}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%+v: got %v, want ErrMalformed", ev, err)
		}
	}
}

func TestEncodeRejectsUnknownKind(t *testing.T) {
	if _, err := AppendFrame(nil, []Event{{Kind: 42}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown kind: got %v, want ErrMalformed", err)
	}
}

func TestStreamEncoderDecoder(t *testing.T) {
	var net bytes.Buffer
	enc := NewEncoder(&net)
	batches := [][]Event{sampleBatch()[:3], sampleBatch()[3:], nil, sampleBatch()}
	for _, b := range batches {
		if err := enc.Encode(b); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	dec := NewDecoder(iotaReader{r: &net}) // 1-byte reads: worst-case chunking
	for i, want := range batches {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d events, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("batch %d event %d: got %+v want %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestStreamDecoderMidFrameCut(t *testing.T) {
	frame, _ := AppendFrame(nil, sampleBatch())
	dec := NewDecoder(bytes.NewReader(frame[:len(frame)-3]))
	if _, err := dec.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// iotaReader delivers one byte per Read so the decoder's refill loop is
// exercised at every frame offset.
type iotaReader struct{ r io.Reader }

func (ir iotaReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return ir.r.Read(p)
}

func TestDecodeZeroAllocsPerEvent(t *testing.T) {
	batch := make([]Event, 512)
	for i := range batch {
		batch[i] = Event{Time: float64(i), Kind: TaskSubmit, ID: int64(i), X: 1, Y: 2, Pub: float64(i), Exp: float64(i + 60)}
	}
	frame, err := AppendFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]Event, 0, len(batch))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		into, _, err = DecodeFrame(frame, into[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFrame allocates %.1f per frame (want 0 — %.4f per event)",
			allocs, allocs/float64(len(batch)))
	}
}

func flip(b []byte, at int, to byte) []byte {
	out := append([]byte(nil), b...)
	out[at] = to
	return out
}
