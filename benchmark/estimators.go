package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of an
// ascending series: the smallest value with at least p of the samples at or
// below it. It returns 0 for an empty series.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns the values in ascending order without touching the
// input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// epochMinimum denoises repeated replays of one trace. Replays are identical
// in work, so epoch i does the same work in every replay and anything above
// the fastest observation of it is interference from the host — noise on a
// shared machine is one-sided. The result has the length of the shortest
// series.
func epochMinimum(replays [][]int64) []int64 {
	if len(replays) == 0 {
		return nil
	}
	n := len(replays[0])
	for _, r := range replays[1:] {
		n = min(n, len(r))
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = replays[0][i]
		for _, r := range replays[1:] {
			out[i] = min(out[i], r[i])
		}
	}
	return out
}

// msSeries converts nanosecond samples to ascending milliseconds.
func msSeries(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sumNS(ns []int64) int64 {
	var s int64
	for _, v := range ns {
		s += v
	}
	return s
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children on parallel tracks overlap,
// so coverage is the union of the child intervals clipped to the parent, not
// the sum of their durations.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.DurNS - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	lo, hi := parent.StartNS, parent.StartNS+parent.DurNS
	var total int64
	at := lo
	for _, k := range kids {
		a, b := max(k.StartNS, at), min(k.StartNS+k.DurNS, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}
