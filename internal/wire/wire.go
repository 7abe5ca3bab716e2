// Package wire is the batched ingest wire protocol: length-prefixed binary
// frames carrying event batches. It is the one batched format: POST
// /v1/stream reads it, and LoadGen and the repository benchmark replay it.
// People and curl use the per-event JSON endpoints instead.
//
// A frame is
//
//	magic   2 bytes  0xDA 0x7A
//	version 1 byte   (currently 1)
//	flags   1 byte   (reserved, must be 0)
//	length  uvarint  payload size in bytes (≤ MaxFrameBytes)
//	payload:
//	  count uvarint  events in the batch (≤ MaxBatchEvents)
//	  count × event:
//	    kind  1 byte
//	    time  8 bytes  float64 little-endian
//	    id    zigzag varint
//	    kind-specific float64 fields, little-endian:
//	      WorkerOnline  x y reach on off
//	      TaskSubmit    x y pub exp
//	      Position      x y
//	      WorkerOffline / TaskCancel  (none)
//
// The codec is strict in both directions: encoding rejects unknown kinds and
// non-finite floats, decoding rejects bad magic, version skew, nonzero
// reserved flags, oversized frames, truncated payloads, trailing payload
// bytes, unknown kinds, and non-finite floats. Decoding never panics and
// never reads past the declared frame length, whatever the input — the fuzz
// harnesses in this package pin that down. Decode appends into a caller-owned
// slice, so steady-state decoding performs zero per-event heap allocations.
//
// The package is a leaf: it depends only on the standard library, so any
// client (or another language's codegen) can speak the protocol without
// importing the engine.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Frame geometry.
const (
	magic0 = 0xDA
	magic1 = 0x7A
	// Version is the current protocol version, echoed in every frame header.
	Version = 1
	// headerSize is magic + version + flags; the payload-length uvarint
	// follows.
	headerSize = 4
	// MaxFrameBytes bounds one frame's payload: large enough for tens of
	// thousands of events per frame, small enough that a hostile length
	// prefix cannot make a decoder buffer gigabytes.
	MaxFrameBytes = 1 << 20
	// MaxBatchEvents bounds the declared event count of one frame.
	MaxBatchEvents = 1 << 16
	// minEventSize is the smallest possible encoded event (kind + time +
	// 1-byte id): the count-vs-payload plausibility check uses it so a tiny
	// payload cannot declare a huge count and force a giant buffer grow.
	minEventSize = 1 + 8 + 1
)

// Kind tags one wire event. Values are the protocol's on-wire bytes and must
// never be renumbered.
type Kind uint8

const (
	// WorkerOnline admits a worker: id, x, y, reach, on, off.
	WorkerOnline Kind = iota
	// WorkerOffline ends a worker's availability window: id.
	WorkerOffline
	// TaskSubmit publishes a task: id, x, y, pub, exp.
	TaskSubmit
	// TaskCancel withdraws an open task: id.
	TaskCancel
	// Position reports an idle worker's position: id, x, y.
	Position

	numKinds
)

// String returns the kind's name, as error messages print it.
func (k Kind) String() string {
	switch k {
	case WorkerOnline:
		return "worker_online"
	case WorkerOffline:
		return "worker_offline"
	case TaskSubmit:
		return "task_submit"
	case TaskCancel:
		return "task_cancel"
	case Position:
		return "position"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one decoded wire event — a flat struct covering every kind, so a
// batch decodes into one reusable []Event with no per-event pointers. Which
// fields are meaningful depends on Kind (see the package comment); the
// codec leaves the rest zero.
type Event struct {
	Time float64
	Kind Kind
	ID   int64
	X, Y float64
	// Reach, On, Off are WorkerOnline's reachability radius and availability
	// window.
	Reach   float64
	On, Off float64
	// Pub, Exp are TaskSubmit's publication and expiration instants.
	Pub, Exp float64
}

// Decode errors. ErrShort is the retriable one — the buffer holds a frame
// prefix and more bytes may complete it; everything else is a hard reject.
var (
	// ErrShort reports an incomplete frame: not corrupt, just not all here.
	ErrShort = errors.New("wire: incomplete frame")
	// ErrMagic reports a frame that does not start with the protocol magic.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion reports a frame from an unknown protocol version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrTooLarge reports a frame whose declared payload exceeds
	// MaxFrameBytes or whose declared count exceeds MaxBatchEvents.
	ErrTooLarge = errors.New("wire: frame too large")
	// ErrMalformed reports a structurally invalid payload: truncated fields,
	// trailing bytes, unknown kinds, nonzero reserved flags, or non-finite
	// floats.
	ErrMalformed = errors.New("wire: malformed frame")
)

// AppendFrame encodes one batch as a frame appended to dst, growing it as
// needed, and returns the extended slice. It rejects batches the decoder
// would reject — too many events, unknown kinds, non-finite floats — so an
// encoded frame always round-trips.
//
//datawa:hotpath
func AppendFrame(dst []byte, events []Event) ([]byte, error) {
	if len(events) > MaxBatchEvents {
		return dst, fmt.Errorf("%w: %d events > %d", ErrTooLarge, len(events), MaxBatchEvents)
	}
	start := len(dst)
	dst = append(dst, magic0, magic1, Version, 0)
	// Reserve the worst-case payload-length uvarint now, encode the payload
	// after it, then fix the length up in place: one pass, no second buffer.
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0)
	payloadAt := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	var err error
	for i := range events {
		if dst, err = appendEvent(dst, &events[i]); err != nil {
			return dst[:start], err
		}
	}
	payload := len(dst) - payloadAt
	if payload > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: payload %d bytes > %d", ErrTooLarge, payload, MaxFrameBytes)
	}
	// Re-encode the payload length into the reserved bytes, padded to the
	// reserved width with uvarint continuation so the frame stays canonical
	// in length. 3 bytes of uvarint cover MaxFrameBytes (2^21-1 ≥ 2^20).
	putUvarint3(dst[lenAt:payloadAt], uint64(payload))
	return dst, nil
}

// putUvarint3 writes v as a fixed-width 3-byte uvarint (continuation bits set
// on the first two bytes). Valid for v < 1<<21; decoders see a standard
// uvarint.
//
//datawa:hotpath
func putUvarint3(b []byte, v uint64) {
	b[0] = byte(v&0x7f) | 0x80
	b[1] = byte((v>>7)&0x7f) | 0x80
	b[2] = byte(v >> 14)
}

//datawa:hotpath
func appendEvent(dst []byte, ev *Event) ([]byte, error) {
	if ev.Kind >= numKinds {
		return dst, fmt.Errorf("%w: unknown kind %d", ErrMalformed, ev.Kind)
	}
	dst = append(dst, byte(ev.Kind))
	dst = appendF64(dst, ev.Time)
	dst = binary.AppendVarint(dst, ev.ID)
	switch ev.Kind {
	case WorkerOnline:
		dst = appendF64(dst, ev.X)
		dst = appendF64(dst, ev.Y)
		dst = appendF64(dst, ev.Reach)
		dst = appendF64(dst, ev.On)
		dst = appendF64(dst, ev.Off)
	case TaskSubmit:
		dst = appendF64(dst, ev.X)
		dst = appendF64(dst, ev.Y)
		dst = appendF64(dst, ev.Pub)
		dst = appendF64(dst, ev.Exp)
	case Position:
		dst = appendF64(dst, ev.X)
		dst = appendF64(dst, ev.Y)
	}
	if !eventFinite(ev) {
		return dst, fmt.Errorf("%w: non-finite float in %s event %d", ErrMalformed, ev.Kind, ev.ID)
	}
	return dst, nil
}

//datawa:hotpath
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// eventFinite checks every float the event's kind puts on the wire.
//
//datawa:hotpath
func eventFinite(ev *Event) bool {
	if !finite(ev.Time) {
		return false
	}
	switch ev.Kind {
	case WorkerOnline:
		return finite(ev.X) && finite(ev.Y) && finite(ev.Reach) && finite(ev.On) && finite(ev.Off)
	case TaskSubmit:
		return finite(ev.X) && finite(ev.Y) && finite(ev.Pub) && finite(ev.Exp)
	case Position:
		return finite(ev.X) && finite(ev.Y)
	}
	return true
}

//datawa:hotpath
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DecodeFrame decodes the frame at the head of buf, appending its events to
// into (pass into[:0] to reuse a buffer across frames) and returning the
// extended slice plus the number of bytes the frame consumed. On ErrShort the
// buffer holds only a prefix of a frame — read more bytes and retry; any
// other error is a hard reject and n is 0. The decoder never reads past
// len(buf) and never allocates per event once into has capacity.
//
//datawa:hotpath
func DecodeFrame(buf []byte, into []Event) (events []Event, n int, err error) {
	if len(buf) < headerSize {
		return into, 0, ErrShort
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return into, 0, ErrMagic
	}
	if buf[2] != Version {
		return into, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, buf[2], Version)
	}
	if buf[3] != 0 {
		return into, 0, fmt.Errorf("%w: reserved flags byte is %#x", ErrMalformed, buf[3])
	}
	size, sn := binary.Uvarint(buf[headerSize:])
	if sn == 0 {
		return into, 0, ErrShort
	}
	if sn < 0 || size > MaxFrameBytes {
		return into, 0, fmt.Errorf("%w: declared payload %d bytes", ErrTooLarge, size)
	}
	payloadAt := headerSize + sn
	if uint64(len(buf)-payloadAt) < size {
		return into, 0, ErrShort
	}
	payload := buf[payloadAt : payloadAt+int(size)]
	events, err = decodePayload(payload, into)
	if err != nil {
		return into, 0, err
	}
	return events, payloadAt + int(size), nil
}

// decodePayload decodes a complete frame payload. Inside a complete payload
// every truncation is corruption, so all errors here are hard rejects.
//
//datawa:hotpath
func decodePayload(p []byte, into []Event) ([]Event, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return into, fmt.Errorf("%w: bad event count", ErrMalformed)
	}
	if count > MaxBatchEvents {
		return into, fmt.Errorf("%w: %d events > %d", ErrTooLarge, count, MaxBatchEvents)
	}
	if count*minEventSize > uint64(len(p)-n) {
		return into, fmt.Errorf("%w: %d events cannot fit %d payload bytes", ErrMalformed, count, len(p)-n)
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		var ev Event
		var err error
		if p, err = decodeEvent(p, &ev); err != nil {
			return into, err
		}
		into = append(into, ev)
	}
	if len(p) != 0 {
		return into, fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(p))
	}
	return into, nil
}

//datawa:hotpath
func decodeEvent(p []byte, ev *Event) ([]byte, error) {
	if len(p) < 1 {
		return p, fmt.Errorf("%w: truncated event", ErrMalformed)
	}
	ev.Kind = Kind(p[0])
	if ev.Kind >= numKinds {
		return p, fmt.Errorf("%w: unknown kind %d", ErrMalformed, p[0])
	}
	p = p[1:]
	var err error
	if ev.Time, p, err = takeF64(p); err != nil {
		return p, err
	}
	id, n := binary.Varint(p)
	if n <= 0 {
		return p, fmt.Errorf("%w: bad event id", ErrMalformed)
	}
	ev.ID = id
	p = p[n:]
	switch ev.Kind {
	case WorkerOnline:
		for _, f := range [...]*float64{&ev.X, &ev.Y, &ev.Reach, &ev.On, &ev.Off} {
			if *f, p, err = takeF64(p); err != nil {
				return p, err
			}
		}
	case TaskSubmit:
		for _, f := range [...]*float64{&ev.X, &ev.Y, &ev.Pub, &ev.Exp} {
			if *f, p, err = takeF64(p); err != nil {
				return p, err
			}
		}
	case Position:
		for _, f := range [...]*float64{&ev.X, &ev.Y} {
			if *f, p, err = takeF64(p); err != nil {
				return p, err
			}
		}
	}
	if !eventFinite(ev) {
		return p, fmt.Errorf("%w: non-finite float in %s event", ErrMalformed, ev.Kind)
	}
	return p, nil
}

//datawa:hotpath
func takeF64(p []byte) (float64, []byte, error) {
	if len(p) < 8 {
		return 0, p, fmt.Errorf("%w: truncated float", ErrMalformed)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:], nil
}
