package obs

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-bucketed latency histogram in the Prometheus shape:
// fixed upper bounds, cumulative export, a sum and a count. Buckets are
// log-spaced so one histogram covers microsecond planner steps and
// multi-second overload epochs with bounded relative error. Quantile reads
// percentiles off the buckets the way a PromQL query over the exposition
// would; exact per-epoch timing belongs to whoever times the epoch from
// outside (the repository benchmark does).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	sum    float64
	count  uint64
}

// NewLogHistogram builds a histogram with perDecade log-spaced bucket bounds
// per factor of 10, spanning [lo, hi] (both > 0, hi > lo).
func NewLogHistogram(lo, hi float64, perDecade int) *Histogram {
	if !(lo > 0) || !(hi > lo) || perDecade < 1 {
		panic("obs: NewLogHistogram needs 0 < lo < hi and perDecade >= 1")
	}
	var bounds []float64
	for i := 0; ; i++ {
		b := lo * math.Pow(10, float64(i)/float64(perDecade))
		if b > hi*1.0000001 {
			break
		}
		bounds = append(bounds, b)
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// NewLatencyHistogram is the dispatcher's stock shape: 1µs to 100s, five
// buckets per decade (relative error under ~60% within a bucket, 41 buckets).
func NewLatencyHistogram() *Histogram { return NewLogHistogram(1e-6, 100, 5) }

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) from the buckets by
// Prometheus's histogram_quantile convention: the rank q·count falls in the
// first bucket whose cumulative count reaches it, and the estimate is
// interpolated linearly between that bucket's bounds (the first bucket's
// lower bound is 0). A rank in the +Inf overflow bucket reports the highest
// finite bound. An empty histogram reports 0 rather than NaN, so snapshots
// stay JSON-encodable before the first epoch.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := math.Min(math.Max(q, 0), 1) * float64(h.count)
	var below uint64 // samples in the buckets before i
	for i, c := range h.counts {
		if c > 0 && float64(below+c) >= rank {
			if i == len(h.bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts the per-bucket (not
	// cumulative) sample counts, one longer than Bounds — the last entry is
	// the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Quantile is Histogram.Quantile over the snapshot's buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return (&Histogram{bounds: s.Bounds, counts: s.Counts, count: s.Count}).Quantile(q)
}

// AppendProm writes the snapshot as Prometheus text-exposition series —
// cumulative `name_bucket{...,le="..."}` lines ending at le="+Inf", then
// name_sum and name_count. labels is either empty or a rendered label list
// without braces (`stage="drain"`); the caller writes HELP/TYPE once per
// metric family, since one family can carry several label sets.
func (s HistogramSnapshot) AppendProm(b *strings.Builder, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, bound, cum)
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, s.Sum, name, labels, s.Count)
	}
}
