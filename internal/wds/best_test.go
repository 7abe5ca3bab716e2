package wds

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/spatial"
)

// instant is the planning pool of a trace at one time: every worker available
// at now, every task published and unexpired.
type instant struct {
	name    string
	now     float64
	workers []*core.Worker
	tasks   []*core.Task
}

// atlasInstants returns the crowd and median instants of every atlas
// archetype.
func atlasInstants() []instant {
	var out []instant
	for _, a := range scenario.Registry() {
		out = append(out, instantsOf(a, 1)...)
	}
	return out
}

// sameHead asserts BestSequence over RS_w returned the head of the generated
// Q_w, and reports whether that head had company: another task set of the same
// length and completion time, which only the id order separates.
func sameHead(t *testing.T, sc *Scratch, w *core.Worker, ix *spatial.Index, now float64, o Options) (nonEmpty, tied bool) {
	t.Helper()
	keep := slices.Clone(sc.Reachable(w, ix, nil, now, o))
	rs := tasksOf(ix.Tasks(), keep)
	entries := scratchSequences(&Scratch{}, w, rs, now, o)
	var got []int
	for _, c := range sc.BestSequence(w, ix.Tasks(), keep, now, o) {
		got = append(got, ix.Tasks()[c.Pos].ID)
	}
	if len(entries) == 0 {
		if len(got) != 0 {
			t.Fatalf("worker %d: picked %v from an empty Q_w", w.ID, got)
		}
		return false, false
	}
	if want := entries[0].seq.IDs(); !slices.Equal(got, want) {
		t.Fatalf("worker %d (reach %d, len %d): picked %v, head of Q_w is %v", w.ID, o.MaxReachable, o.MaxSeqLen, got, want)
	}
	completion := func(q core.Sequence) float64 { return core.CompletionTime(w.Loc, now, q, o.Travel) }
	tied = len(entries) > 1 && len(entries[1].seq) == len(entries[0].seq) && completion(entries[1].seq) == completion(entries[0].seq)
	return true, tied
}

// TestBestSequenceMatchesReference holds the branch-and-bound pick to the
// generate-dedup-sort pipeline it stands in for: the same sequence, in the
// same order, as MaximalValidSequences(...)[0] — on the atlas, and on lattice
// instances built to tie (equal distances, arrivals clamped to a virtual
// task's publication time), where only the exact tie rule agrees.
func TestBestSequenceMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every Q_w of 20 planning instants at 27 settings")
	}
	var sc Scratch
	picked := 0
	for _, in := range atlasInstants() {
		ix := spatial.NewIndex(in.tasks, spatial.CellSizeForReach(in.workers))
		for maxLen := 1; maxLen <= 3; maxLen++ {
			for _, maxReach := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64} {
				o := opts.WithDefaults()
				o.MaxSeqLen, o.MaxReachable, o.MaxSequences = maxLen, maxReach, 1<<30
				for _, w := range in.workers {
					if ne, _ := sameHead(t, &sc, w, ix, in.now, o); ne {
						picked++
					}
				}
			}
		}
	}
	t.Logf("atlas: %d non-empty picks", picked)

	// A full reachable set of 64 (no atlas worker at this density reaches that
	// many).
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		w := worker(1, 0, 0, 2, 0, 300+r.Float64()*600)
		var tasks []*core.Task
		for i := 0; i < 80+r.Intn(40); i++ {
			tasks = append(tasks, task(i+1, r.Float64()*1.4, r.Float64()*1.4, 0, 200+r.Float64()*400))
		}
		o := opts.WithDefaults()
		o.MaxSeqLen, o.MaxReachable = 2+trial%2, 64
		ix := spatial.NewIndex(tasks, w.Reach)
		if n := len(sc.Reachable(w, ix, nil, 0, o)); n != 64 {
			t.Fatalf("full trial %d: %d reachable tasks", trial, n)
		}
		sameHead(t, &sc, w, ix, 0, o)
	}

	// Lattice instances: a worker and up to ten tasks on a 5x5 grid of 100 m
	// (10 s) steps, a third of the tasks virtual with a publication time still
	// to come.
	r = rand.New(rand.NewSource(14))
	nonEmpty, ties := 0, 0
	for trial := 0; trial < 6000; trial++ {
		now := float64(r.Intn(4)) * 5
		w := worker(1, float64(r.Intn(5))*0.1, float64(r.Intn(5))*0.1, 0.1+float64(r.Intn(5))*0.1, 0, now+20+float64(r.Intn(12))*5)
		var tasks []*core.Task
		for _, id := range r.Perm(10)[:1+r.Intn(10)] {
			s := task(id+1, float64(r.Intn(5))*0.1, float64(r.Intn(5))*0.1, 0, now+10+float64(r.Intn(16))*5)
			if r.Intn(3) == 0 {
				s.Virtual, s.Pub = true, now+float64(r.Intn(10))*5
				s.Exp = s.Pub + 5 + float64(r.Intn(6))*5
			}
			tasks = append(tasks, s)
		}
		o := opts.WithDefaults()
		o.MaxSeqLen, o.MaxReachable = 1+r.Intn(3), 1+r.Intn(8)
		ne, tie := sameHead(t, &sc, w, spatial.NewIndex(tasks, w.Reach), now, o)
		if ne {
			nonEmpty++
		}
		if tie {
			ties++
		}
	}
	t.Logf("lattice: %d non-empty instances, %d with a tie for first place", nonEmpty, ties)
	if ties < 100 {
		t.Fatalf("only %d lattice instances tied for first place: the tie rule went untested", ties)
	}
}

// refReachable is reachable as it was before the bounded insertion — filter
// every candidate, sort them all by (distance, id), cut at the cap — over the
// whole pool, as pool positions.
func refReachable(w *core.Worker, pool []*core.Task, avail []bool, now float64, o Options) []int32 {
	if !w.Available(now) {
		return nil
	}
	var keep []spatial.Candidate
	for i, s := range pool {
		if avail != nil && !avail[i] || s.Exp <= now {
			continue
		}
		d := geo.Dist(w.Loc, s.Loc)
		travel := o.Travel.TimeForDist(d)
		if travel > s.Exp-now || travel > w.Off-now || d > w.Reach {
			continue
		}
		keep = append(keep, spatial.Candidate{Dist: d, Pos: int32(i)})
	}
	slices.SortFunc(keep, func(a, b spatial.Candidate) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return pool[a.Pos].ID - pool[b.Pos].ID
	})
	if len(keep) > o.MaxReachable {
		keep = keep[:o.MaxReachable]
	}
	return positions(keep)
}

func positions(keep []spatial.Candidate) []int32 {
	var out []int32
	for _, c := range keep {
		out = append(out, c.Pos)
	}
	return out
}

// TestReachableTopKMatchesSort compares the bounded insertion with the full
// sort it replaced, through a grid index and through one without a cell size
// (the brute-force scan): on scattered pools, on a lattice where most
// distances tie and the id decides, with fewer candidates than the cap, and
// with availability flags — which apply before the cap.
func TestReachableTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var sc Scratch
	fewer := 0
	for trial := 0; trial < 400; trial++ {
		ws, ts := randomInstance(int64(trial), 6, 20+r.Intn(200), 2)
		if trial%2 == 1 {
			// Snap to a 200 m lattice and shuffle the ids: equal distances,
			// decided by ids that do not follow pool order.
			ids := r.Perm(len(ts))
			for i, s := range ts {
				s.ID = ids[i] + 1
				s.Loc.X, s.Loc.Y = float64(int(s.Loc.X*5))/5, float64(int(s.Loc.Y*5))/5
			}
			for _, w := range ws {
				w.Loc.X, w.Loc.Y = float64(int(w.Loc.X*5))/5, float64(int(w.Loc.Y*5))/5
			}
		}
		var avail []bool
		if trial%3 > 0 {
			for range ts {
				avail = append(avail, r.Intn(3) > 0)
			}
		}
		o := opts.WithDefaults()
		o.MaxReachable = []int{1, 2, 8, 8, 64}[trial%5]
		ix := spatial.NewIndex(ts, spatial.CellSizeForReach(ws))
		for _, w := range ws {
			want := refReachable(w, ts, avail, 0, o)
			if len(want) < o.MaxReachable {
				fewer++
			}
			if got := positions(sc.Reachable(w, ix, avail, 0, o)); !slices.Equal(got, want) {
				t.Fatalf("trial %d worker %d: indexed %v, full sort %v", trial, w.ID, got, want)
			}
			if avail == nil {
				if got := positions((&Scratch{}).Reachable(w, spatial.NewIndex(ts, 0), nil, 0, o)); !slices.Equal(got, want) {
					t.Fatalf("trial %d worker %d: flat index %v, full sort %v", trial, w.ID, got, want)
				}
			}
		}
	}
	if fewer == 0 {
		t.Fatal("no query returned fewer candidates than the cap")
	}
}
