// Package obs is the dispatcher's zero-dependency observability core: stage
// spans with a bounded ring and Chrome trace-event export, a per-task
// lifecycle ledger that accounts every disposal transition, log-bucketed
// latency histograms in the Prometheus exposition shape, and the flight
// recorder that freezes spans + ledger slices around an anomaly.
//
// Every type here separates logical content (epoch numbers, logical clock
// instants, transition causes) from wall-clock measurements (span start and
// duration, histogram samples). Logical content is a pure function of the
// event stream — byte-identical across reruns and GOMAXPROCS settings, which
// the dispatcher tests pin — while wall fields vary run to run and are
// excluded from equality checks.
package obs

// Span is one instrumented region of a planning epoch. Name and Track
// position it ("step" on track 3 is shard 2's planner Step; track 0 is the
// dispatcher's own sequential work), N counts the units the region processed
// (events drained, tasks arbitrated, …), and Detail carries stage-specific
// logical annotations. StartNS/DurNS are wall-clock: nanoseconds since the
// owning ring's origin and the region's measured duration. Only those two
// fields are non-deterministic.
type Span struct {
	Name   string `json:"name"`
	Track  int    `json:"track"`
	N      int    `json:"n,omitempty"`
	Detail string `json:"detail,omitempty"`
	// StartNS is the wall-clock start, nanoseconds since the recorder's
	// origin instant; DurNS the wall duration. Excluded from determinism
	// comparisons.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// EpochSpans is one epoch's span set: the logical position (Epoch, Now) plus
// every stage span recorded while that epoch ran, in recording order.
type EpochSpans struct {
	Epoch int     `json:"epoch"`
	Now   float64 `json:"now"`
	Spans []Span  `json:"spans"`
}

// Ring keeps the last values added to it, a fixed number of them: the last
// epochs' span sets, the latest flight dumps.
type Ring[T any] struct {
	buf  []T
	next int
	full bool
}

// NewRing builds a ring retaining n values (n ≥ 1).
func NewRing[T any](n int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(n, 1))}
}

// Add appends one value, evicting the oldest once full.
func (r *Ring[T]) Add(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Last returns up to n retained values in a new slice, oldest first (n ≤ 0 =
// all).
func (r *Ring[T]) Last(n int) []T {
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// All returns every retained value in a new slice, oldest first.
func (r *Ring[T]) All() []T { return r.Last(0) }
