package wds

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// seqEntry is one sequence of Q_w with its task set as a mask over rs
// positions.
type seqEntry struct {
	seq  core.Sequence
	mask uint64
}

// scratchSequences is Q_w as a Separator generates it on sc — into the
// arenas, through sequenceSets — for a worker whose reachable set is rs, read
// back through AppendSeq. Only the first 64 tasks of rs count, as under
// Options.MaxReachable.
func scratchSequences(sc *Scratch, w *core.Worker, rs []*core.Task, now float64, o Options) []seqEntry {
	ws := WorkerSets{Index: wholePool(min(len(rs), maxReach))}
	sc.resetArenas()
	sc.sequenceSets(w, rs, &ws, now, o)
	var out []seqEntry
	for k, mask := range ws.Masks {
		out = append(out, seqEntry{ws.AppendSeq(nil, rs, k), mask})
	}
	return out
}

// wholePool returns 0, 1, …, n−1: the Index of a reachable set that is a
// whole pool, in pool order.
func wholePool(n int) []int32 {
	index := make([]int32, n)
	for k := range index {
		index[k] = int32(k)
	}
	return index
}

// refSequences is Q_w by its definition (Eq. 10), generated the slow way:
// every subset of at most o.MaxSeqLen of the first 64 tasks of rs, each
// subset's orderings in lexicographic position order, the first ordering of
// the least completion kept per set — compared exactly, no tolerance — then
// every kept ordering sorted longest first, by completion, by ids. An ordering
// is valid under Definition 4 with its arrivals summed left to right, as the
// worker would drive it.
func refSequences(w *core.Worker, rs []*core.Task, now float64, o Options) []seqEntry {
	rs = rs[:min(len(rs), maxReach)]
	type kept struct {
		order      []int32
		completion float64
	}
	var sets []kept
	completion := func(order []int32) (float64, bool) {
		loc, t := w.Loc, now
		for _, k := range order {
			s := rs[k]
			if geo.Dist(w.Loc, s.Loc) > w.Reach {
				return 0, false
			}
			arrive := t + o.Travel.Time(loc, s.Loc)
			if arrive < s.Pub {
				arrive = s.Pub
			}
			if arrive >= s.Exp || arrive >= w.Off {
				return 0, false
			}
			loc, t = s.Loc, arrive
		}
		return t, true
	}
	var subset []int32
	var choose func(from int)
	choose = func(from int) {
		if len(subset) > 0 {
			order := slices.Clone(subset) // ascending: the first ordering in lexicographic order
			var best kept
			found := false
			for {
				if c, ok := completion(order); ok && (!found || c < best.completion) {
					best, found = kept{slices.Clone(order), c}, true
				}
				if !nextPermutation(order) {
					break
				}
			}
			if found {
				sets = append(sets, best)
			}
		}
		if len(subset) == o.MaxSeqLen {
			return
		}
		for i := from; i < len(rs); i++ {
			subset = append(subset, int32(i))
			choose(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	choose(0)
	slices.SortFunc(sets, func(a, b kept) int {
		if len(a.order) != len(b.order) {
			return len(b.order) - len(a.order)
		}
		switch {
		case a.completion < b.completion:
			return -1
		case a.completion > b.completion:
			return 1
		}
		return slices.CompareFunc(a.order, b.order, func(x, y int32) int { return rs[x].ID - rs[y].ID })
	})
	var out []seqEntry
	for _, s := range sets {
		e := seqEntry{}
		for _, k := range s.order {
			e.seq = append(e.seq, rs[k])
			e.mask |= 1 << uint(k)
		}
		out = append(out, e)
	}
	return out
}

// nextPermutation rearranges p into its lexicographic successor and reports
// whether there was one.
func nextPermutation(p []int32) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	slices.Reverse(p[i+1:])
	return true
}

// sameEntries fails unless got and want hold the same sequences, task for
// task, in the same order, and — where masks is set — the same masks.
func sameEntries(t *testing.T, label string, got, want []seqEntry, masks bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: |Q_w| = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].seq, want[i].seq) {
			t.Fatalf("%s: Q_w[%d] = %v, want %v", label, i, got[i].seq.IDs(), want[i].seq.IDs())
		}
		if masks && got[i].mask != want[i].mask {
			t.Fatalf("%s: Q_w[%d] = %v has mask %#x, want %#x", label, i, got[i].seq.IDs(), got[i].mask, want[i].mask)
		}
	}
}

// checkSequences holds both faces of the generator — the package function and
// sequenceSets on a reused Scratch — to the definition.
func checkSequences(t *testing.T, label string, sc *Scratch, w *core.Worker, rs []*core.Task, now float64, o Options) int {
	t.Helper()
	want := refSequences(w, rs, now, o)
	var fresh []seqEntry
	for _, q := range MaximalValidSequences(w, rs, now, o) {
		fresh = append(fresh, seqEntry{seq: q})
	}
	sameEntries(t, label+"/MaximalValidSequences", fresh, want, false)
	sameEntries(t, label+"/sequenceSets", scratchSequences(sc, w, rs, now, o), want, true)
	return len(want)
}

// TestSequencesMatchDefinition pins Q_w exactly: every sequence, its place in
// the order and its mask, against refSequences. The instances are random
// reachable sets of 0–12 tasks at every length cap up to 4, full sets of 64
// (and 70, of which only the first 64 count) at length 2, and lattices whose
// arrivals clamp to virtual tasks published in the future, where completions
// tie exactly and only the first-ordering rule and the id order separate
// them. One Scratch serves every call, wide and narrow interleaved, so no
// state of one call can leak into the next unseen.
func TestSequencesMatchDefinition(t *testing.T) {
	var sc Scratch
	r := rand.New(rand.NewSource(40))
	total := 0
	for trial := 0; trial < 600; trial++ {
		n := trial % 13
		w := worker(1, r.Float64(), r.Float64(), 0.4+r.Float64(), 0, 100+r.Float64()*600)
		var rs []*core.Task
		for _, id := range r.Perm(1000)[:n] {
			rs = append(rs, task(id+1, r.Float64()*1.5, r.Float64()*1.5, r.Float64()*50, 60+r.Float64()*600))
		}
		o := opts.WithDefaults()
		o.MaxSeqLen = 1 + trial%4
		total += checkSequences(t, "random", &sc, w, rs, 0, o)
	}

	for _, n := range []int{64, 70} {
		w := worker(1, 0.7, 0.7, 2, 0, 1e9)
		var rs []*core.Task
		for i := 0; i < n; i++ {
			rs = append(rs, task(i+1, r.Float64()*1.4, r.Float64()*1.4, 0, 100+r.Float64()*400))
		}
		o := opts.WithDefaults()
		o.MaxSeqLen = 2
		total += checkSequences(t, "full", &sc, w, rs, 0, o)
		// Wide, then narrow, then wide again on the same Scratch.
		total += checkSequences(t, "full/narrow", &sc, w, rs[:1], 0, o)
		total += checkSequences(t, "full/again", &sc, w, rs, 0, o)
	}

	ties := 0
	for trial := 0; trial < 3000; trial++ {
		now := float64(r.Intn(4)) * 5
		w := worker(1, float64(r.Intn(5))*0.1, float64(r.Intn(5))*0.1, 0.1+float64(r.Intn(5))*0.1, 0, now+20+float64(r.Intn(12))*5)
		var rs []*core.Task
		for _, id := range r.Perm(10)[:1+r.Intn(10)] {
			s := task(id+1, float64(r.Intn(5))*0.1, float64(r.Intn(5))*0.1, 0, now+10+float64(r.Intn(16))*5)
			if r.Intn(3) == 0 {
				s.Virtual, s.Pub = true, now+float64(r.Intn(10))*5
				s.Exp = s.Pub + 5 + float64(r.Intn(6))*5
			}
			rs = append(rs, s)
		}
		o := opts.WithDefaults()
		o.MaxSeqLen = 1 + r.Intn(4)
		total += checkSequences(t, "lattice", &sc, w, rs, now, o)
		want := refSequences(w, rs, now, o)
		for i := 1; i < len(want); i++ {
			a, b := want[i-1].seq, want[i].seq
			if len(a) == len(b) && core.CompletionTime(w.Loc, now, a, o.Travel) == core.CompletionTime(w.Loc, now, b, o.Travel) {
				ties++
				break
			}
		}
	}
	t.Logf("%d sequences checked; %d lattice instances with an exact tie", total, ties)
	if ties < 100 {
		t.Fatalf("only %d lattice instances tied: the tie order went untested", ties)
	}
}
