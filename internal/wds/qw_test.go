package wds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestQwMatchesGenerator pins Q_w as a Separation hands it out to the
// generator's own answer: for every worker of every instance, the sequences
// read off its WorkerSets are MaximalValidSequences over its RS_w — the same
// task pointers in the same order — and each mask is its sequence's task set
// over the positions of RS_w. The instances are the event-spike crowds at 1.5x
// and 5x, random pools at every length cap up to 4 and with 64 tasks in reach,
// and K = 5 scenario siblings, where a worker whose reachable set two
// scenarios share is read through each of them.
func TestQwMatchesGenerator(t *testing.T) {
	type tc struct {
		name    string
		workers []*core.Worker
		tasks   []*core.Task
		now     float64
		o       Options
		k       int
	}
	var cases []tc
	for _, scale := range []float64{1.5, 5} {
		c := crowdOf("event-spike", scale)
		cases = append(cases, tc{c.name, c.workers, c.tasks, c.now, crowdOpts, 1})
	}
	for _, seed := range []int64{3, 8} {
		for maxLen := 1; maxLen <= 4; maxLen++ {
			ws, ts := randomInstance(seed, 60, 200, 2)
			for i, s := range ts {
				if i%4 == 0 {
					s.Virtual = true
				}
			}
			o := opts
			o.MaxSeqLen = maxLen
			cases = append(cases, tc{fmt.Sprintf("random/%d/len%d", seed, maxLen), ws, ts, 0, o, 1})
		}
	}
	ws, ts := randomInstance(33, 40, 600, 3)
	wide := opts
	wide.MaxReachable, wide.MaxSeqLen = 64, 2
	cases = append(cases, tc{"random/reach64", ws, ts, 0, wide, 1})
	const k = 5
	for _, seed := range []int64{7, 19} {
		ws, ts := randomInstance(seed, 60, 300, 5)
		r := rand.New(rand.NewSource(seed))
		for i, s := range ts {
			if i%3 == 0 {
				s.Virtual, s.SampleBits = true, uint64(r.Intn(1<<k))
			}
		}
		cases = append(cases, tc{fmt.Sprintf("scenarios/%d", seed), ws, ts, 0, opts, k})
	}

	var sp Separator
	for _, c := range cases {
		o := c.o.WithDefaults()
		seps := sp.Scenarios(c.workers, c.tasks, c.now, c.o, c.k)
		sequences, shared, full := 0, 0, false
		for s := range seps {
			sep := &seps[s]
			for i, w := range sep.Workers {
				label := fmt.Sprintf("%s scenario %d worker %d", c.name, s, w.ID)
				rs, got := reachOf(sep, i), seqsOf(sep, i)
				full = full || len(rs) == 64
				want := MaximalValidSequences(w, rs, c.now, o)
				if len(got) != len(want) {
					t.Fatalf("%s: |Q_w| = %d, the generator's %d", label, len(got), len(want))
				}
				for j := range want {
					if !slices.Equal(got[j], want[j]) {
						t.Fatalf("%s: Q_w[%d] = %v, the generator's %v", label, j, got[j].IDs(), want[j].IDs())
					}
					var mask uint64
					for _, task := range want[j] {
						mask |= 1 << uint(slices.Index(rs, task))
					}
					if m := sep.Sets[i].Masks[j]; m != mask {
						t.Fatalf("%s: Q_w[%d] = %v has mask %#x, want %#x", label, j, want[j].IDs(), m, mask)
					}
				}
				sequences += len(want)
				if s > 0 && len(rs) > 0 && sep.SharesSets(&seps[0], i) {
					shared++
				}
			}
		}
		if sequences == 0 {
			t.Fatalf("%s: no sequences", c.name)
		}
		if c.k > 1 && shared == 0 {
			t.Fatalf("%s: no scenario shares a reachable set with scenario 0", c.name)
		}
		if full != (o.MaxReachable == 64) {
			t.Fatalf("%s: a worker with 64 tasks in reach = %v", c.name, full)
		}
	}
}

// TestScenariosAllocs holds the first Separator stage — every worker's
// reachable set and Q_w — on a warm Separator on the event-spike 1.5x and 5x
// crowds to no allocation at all, however many workers reach a task. Q_w lies
// in the Separator's arenas as positions in RS_w; stored as task slices it cost
// one allocation per worker reaching a task: 113 a call on the 1.5x crowd (111
// such workers) and 380 on the 5x (378). The idle instant,
// gathered from the task side, holds its worker grid and candidate lists in
// the Separator and allocates nothing either.
func TestScenariosAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, crowd := range []instant{crowdOf("event-spike", 1.5), crowdOf("event-spike", 5), idleOf()} {
		var sp Separator
		run := func() { sp.Scenarios(crowd.workers, crowd.tasks, crowd.now, crowdOpts, 1) }
		run()
		if got := testing.AllocsPerRun(20, run); got > 0 {
			t.Errorf("%s: %v allocations a call, want none", crowd.name, got)
		}
	}
}
