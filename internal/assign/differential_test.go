package assign

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/tvf"
	"repro/internal/wds"
	"repro/internal/workload"
)

// instant is the planning pool of a trace at one time, built the way
// Framework.TrainValue builds its sample instants: every worker available at
// t, every task published and unexpired at t.
type instant struct {
	name    string
	now     float64
	grid    geo.Grid
	workers []*core.Worker
	tasks   []*core.Task
}

func poolAt(sc *workload.Scenario, name string, t float64) instant {
	in := instant{name: name, now: t, grid: sc.Grid}
	for _, w := range sc.Workers {
		if w.Available(t) {
			in.workers = append(in.workers, w)
		}
	}
	for _, s := range sc.Tasks {
		if s.Pub <= t && s.Exp > t {
			in.tasks = append(in.tasks, s)
		}
	}
	return in
}

// atlasInstants returns the crowd and median instants of every atlas
// archetype.
func atlasInstants() []instant {
	var out []instant
	for _, a := range scenario.Registry() {
		out = append(out, atlasInstantsOf(a, 1)...)
	}
	return out
}

// atlasInstantsOf returns the archetype's crowd instant at the given density
// (most open tasks on a 2 s grid) and its median one, in that order.
func atlasInstantsOf(a scenario.Archetype, scale float64) []instant {
	sc := a.Generate(scale)
	type load struct {
		t    float64
		open int
	}
	var grid []load
	for t := sc.T0; t < sc.T1; t += 2 {
		open := 0
		for _, s := range sc.Tasks {
			if s.Pub <= t && s.Exp > t {
				open++
			}
		}
		grid = append(grid, load{t, open})
	}
	// Busiest first; the stable sort keeps ties in time order.
	sort.SliceStable(grid, func(i, j int) bool { return grid[i].open > grid[j].open })
	crowd, median := grid[0], grid[len(grid)/2]
	return []instant{poolAt(sc, a.Name+"/crowd", crowd.t), poolAt(sc, a.Name+"/median", median.t)}
}

// sameSearch asserts the dense core reproduced the reference run's plan
// (worker ids, task ids in order), node count and its exact/greedy split, and
// budget-bound trees, skipping no more greedy completions than it counted.
func sameSearch(t *testing.T, ref *refSearch, want core.Plan, s *Search, got core.Plan) {
	t.Helper()
	samePlans(t, want, got)
	if s.NodesLastPlan != ref.NodesLastPlan {
		t.Fatalf("nodes %d, reference %d", s.NodesLastPlan, ref.NodesLastPlan)
	}
	if s.GreedyCompletionsLastPlan != ref.greedyCalls || s.NodesLastPlan != ref.exactNodes+s.GreedyCompletionsLastPlan {
		t.Fatalf("nodes %d = exact %d + greedy %d does not hold (reference greedy %d)",
			s.NodesLastPlan, ref.exactNodes, s.GreedyCompletionsLastPlan, ref.greedyCalls)
	}
	if s.BudgetBoundTreesLastPlan != ref.boundTrees {
		t.Fatalf("budget-bound trees %d, reference %d", s.BudgetBoundTreesLastPlan, ref.boundTrees)
	}
	if s.ExpandedLastPlan > s.NodesLastPlan || s.ExpandedLastPlan <= 0 && s.NodesLastPlan > 0 {
		t.Fatalf("expanded %d of %d nodes", s.ExpandedLastPlan, s.NodesLastPlan)
	}
	if s.SkippedCompletionsLastPlan < 0 || s.SkippedCompletionsLastPlan > s.GreedyCompletionsLastPlan {
		t.Fatalf("skipped %d of %d greedy completions", s.SkippedCompletionsLastPlan, s.GreedyCompletionsLastPlan)
	}
}

// sameOutcome is sameSearch plus the RL sample stream, for the runs that
// produce one or are guided by a model: those never consult the transposition
// table, so every node they report they expanded, nor skip a completion.
func sameOutcome(t *testing.T, ref *refSearch, want core.Plan, s *Search, got core.Plan) {
	t.Helper()
	sameSearch(t, ref, want, s, got)
	if s.ExpandedLastPlan != s.NodesLastPlan {
		t.Fatalf("expanded %d of %d nodes with the table out of use", s.ExpandedLastPlan, s.NodesLastPlan)
	}
	if s.SkippedCompletionsLastPlan != 0 {
		t.Fatalf("skipped %d greedy completions emitting samples or guided by a model", s.SkippedCompletionsLastPlan)
	}
	if len(s.Samples) != len(ref.Samples) {
		t.Fatalf("%d samples, reference %d", len(s.Samples), len(ref.Samples))
	}
	for i := range ref.Samples {
		if s.Samples[i] != ref.Samples[i] {
			t.Fatalf("sample %d of %d differs:\n got %v\nwant %v", i, len(ref.Samples), s.Samples[i], ref.Samples[i])
		}
	}
}

// chainInstant is a one-row lattice: n tasks a step apart on a line, and every
// stride steps a stack of workers, a hair apart, that each reach exactly span
// of them — neighbouring stacks share span−stride tasks, so the whole row is
// one dependency component and its universe is exactly the n tasks.
func chainInstant(n, span, stride, stack int) instant {
	const step = 0.1
	in := instant{name: fmt.Sprintf("chain-%d", n)}
	for i := 0; i < n; i++ {
		in.tasks = append(in.tasks, task(i+1, step*float64(i), 0, 0, 1e5))
	}
	for i := 0; ; i++ {
		first := min(stride*i, n-span)
		for s := 0; s < stack; s++ {
			in.workers = append(in.workers, worker(len(in.workers)+1,
				step*(float64(first)+float64(span-1)/2), 0.001*float64(s), step*float64(span)/2, 0, 1e5))
		}
		if first == n-span {
			return in
		}
	}
}

// valueTieInstant is a plan decided by the last bit of a sequence value. Worker
// 1 can sweep west over tasks 1–3 (virtual, virtual, real) or east over 4–6
// (real, virtual, virtual), nothing in between — deadlines forbid turning back —
// and at a virtual weight of 0.1 seqValue sums the first to 1.2 and the second,
// met second, to the double above it: east wins, but only if the values
// compared are seqValue's running sums and not, say, 1 + 2·0.1. Workers 2 and 3
// contend for task 7, virtual too, and make it a tree the table is on for.
func valueTieInstant() instant {
	in := instant{name: "value-tie"}
	for i, x := range []float64{-0.1, -0.2, -0.3, 0.1, 0.2, 0.3} {
		s := task(i+1, x, 0, 0, float64(10*(i%3+1)+1))
		s.Virtual = i != 2 && i != 3
		in.tasks = append(in.tasks, s)
	}
	in.tasks = append(in.tasks, vtask(7, 0, 0.3, 0, 31))
	in.workers = []*core.Worker{worker(1, 0, 0, 0.35, 0, 1e5), worker(2, 0, 0.5, 0.25, 0, 1e5), worker(3, 0, 0.55, 0.3, 0, 1e5)}
	return in
}

// wordPath asserts the planner searched one tree of the given universe, and
// that the tree's layout is the Separation's at whatever width the universe
// takes: every sequence's words are its tasks' universe bits, nothing past
// them, and its stored value is seqValue's, to the bit.
func wordPath(t *testing.T, s *Search, universe int) {
	t.Helper()
	if len(s.taskOff) != 2 || int(s.taskOff[1]) != universe {
		t.Fatalf("universes %v, want one of %d tasks", s.taskOff, universe)
	}
	run := &s.runs[0]
	w := run.relWords
	if w != (universe+63)/64 {
		t.Fatalf("%d words a row for a universe of %d tasks", w, universe)
	}
	pos := make(map[*core.Task]int32)
	for p, task := range run.sep.Tasks {
		pos[task] = s.local[p]
	}
	var check func(n *wds.TreeNode)
	check = func(n *wds.TreeNode) {
		for j, wi := range n.Index {
			seqs, q := seqsOf(run.sep, int(wi)), run.seqs[run.relOff[n.ID]+int32(j)]
			if len(q.words) != w*len(seqs) || len(q.vals) != len(seqs) {
				t.Fatalf("worker %d: %d words, %d values for %d sequences", wi, len(q.words), len(q.vals), len(seqs))
			}
			for k, seq := range seqs {
				got, want := make([]uint64, w), make([]uint64, w)
				for i := range got {
					got[i] = q.words[i*len(seqs)+k]
				}
				for _, task := range seq {
					want[pos[task]>>6] |= 1 << uint(pos[task]&63)
				}
				if !slices.Equal(got, want) || q.vals[k] != seqValue(seq, run.opts.VirtualWeight) {
					t.Fatalf("worker %d sequence %d: words %x worth %v, want %x worth %v",
						wi, k, got, q.vals[k], want, seqValue(seq, run.opts.VirtualWeight))
				}
			}
		}
		for _, child := range n.Children {
			check(child)
		}
	}
	check(s.results[0].root)
}

// TestSearchMatchesReference is the differential contract of the dense
// planning core: on the crowd and median instants of every atlas archetype it
// returns what the map-and-scan reference returns — with the budget binding
// and not, the RTC tree on and flattened, serial and parallel, collecting
// samples and not (the run the transposition table serves), guided by a value
// model, and with the reachable sets uncapped. The table is then held to
// the reference where it is most exposed: at every budget a small tree can
// run out on, and on either side of the universe width it is switched on by.
// The layout is held to it on workers whose mask rows are full, bit 63
// included, and on a universe of three words whose workers reach across bits
// 63/64 and 127/128. So is the bound that skips greedy completions past the
// budget (completionBound): every crowd instant must have run it, and the
// fixtures include a virtual weight above 1, where it is padded.
func TestSearchMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 20 planning instants through the reference search")
	}
	instants := atlasInstants()

	// One value model for every instant: fitted to the samples of the first
	// crowd instant, it only has to be a fixed non-trivial function.
	model := tvf.NewModel(16, 7)
	train := opts()
	train.MaxNodes = 4000
	model.Train(CollectSamples(instants[0].workers, instants[0].tasks, instants[0].now, train), tvf.TrainConfig{Epochs: 5, Seed: 7})

	bound := 0
	for _, in := range instants {
		type config struct {
			name string
			o    Options
			tvf  bool
		}
		var configs []config
		for _, maxNodes := range []int{50, 4000, 20000} {
			for _, flat := range []bool{false, true} {
				o := opts()
				o.MaxNodes, o.Flat = maxNodes, flat
				configs = append(configs, config{fmt.Sprintf("nodes=%d/flat=%v", maxNodes, flat), o, false})
			}
		}
		configs = append(configs, config{"tvf", opts(), true})
		// Asking for 70 reachable tasks is asking for 64 (wds.Options), which
		// at atlas densities — at most 46 in reach — is every one of them.
		uncapped := opts()
		uncapped.MaxNodes = 4000
		uncapped.WDS.MaxReachable, uncapped.WDS.MaxSeqLen = 70, 2
		configs = append(configs, config{"reach=70", uncapped, false})

		plain, answered, skipped := 0, false, false // table-served runs of this instant, whether the table took nodes off one, and whether one skipped a completion
		for _, c := range configs {
			ref := &refSearch{Opts: c.o, Collect: !c.tvf}
			if c.tvf {
				ref.Model = model
			}
			want := ref.Plan(in.workers, in.tasks, in.now)
			bound += ref.boundTrees
			for _, p := range []int{1, 0} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", in.name, c.name, p), func(t *testing.T) {
					o := c.o
					o.Parallelism = p
					s := &Search{Opts: o, Model: ref.Model, Collect: ref.Collect}
					sameOutcome(t, ref, want, s, s.Plan(in.workers, in.tasks, in.now))
					// A second call on the warm planner — every arena and
					// scratch buffer reused — must plan the same again.
					s.Samples = nil
					sameOutcome(t, ref, want, s, s.Plan(in.workers, in.tasks, in.now))
					if c.tvf {
						return
					}
					// The same search without sample collection is the one
					// the live planners run, and the one the table serves:
					// cold, then warm over the previous call's entries.
					live := &Search{Opts: o}
					for pass := 0; pass < 2; pass++ {
						sameSearch(t, ref, want, live, live.Plan(in.workers, in.tasks, in.now))
						plain++
						answered = answered || live.ExpandedLastPlan < live.NodesLastPlan
						skipped = skipped || live.SkippedCompletionsLastPlan > 0
					}
				})
			}
		}
		if strings.HasSuffix(in.name, "/crowd") && plain > 0 && !answered { // plain == 0: -run filtered the runs out
			t.Fatalf("%s: no run expanded fewer nodes than it reports: the transposition table was bypassed", in.name)
		}
		if strings.HasSuffix(in.name, "/crowd") && plain > 0 && !skipped {
			t.Fatalf("%s: no run skipped a greedy completion: the completion bound went untested", in.name)
		}
	}
	if bound == 0 {
		t.Fatal("no configuration exhausted a tree's node budget: the greedy-completion path went untested")
	}

	// Every budget from 1 to the unbudgeted node count of a four-worker row:
	// whichever call the budget falls on, a stored subproblem that would carry
	// the count across it must be expanded again, so the exact/greedy split
	// and the plan stay the reference's.
	t.Run("chain-10/budgets", func(t *testing.T) {
		in := chainInstant(10, 4, 2, 1)
		o := opts()
		o.WDS.MaxSeqLen = 2
		o.MaxNodes = 1 << 30
		free := &Search{Opts: o}
		free.Plan(in.workers, in.tasks, in.now)
		if free.GreedyCompletionsLastPlan != 0 || free.ExpandedLastPlan >= free.NodesLastPlan {
			t.Fatalf("unbudgeted: %d nodes, %d expanded, %d greedy", free.NodesLastPlan, free.ExpandedLastPlan, free.GreedyCompletionsLastPlan)
		}
		warm, refused := &Search{}, 0
		for o.MaxNodes = 1; o.MaxNodes <= free.NodesLastPlan; o.MaxNodes++ {
			ref := &refSearch{Opts: o}
			want := ref.Plan(in.workers, in.tasks, in.now)
			warm.Opts = o
			sameSearch(t, ref, want, warm, warm.Plan(in.workers, in.tasks, in.now))
			if ref.greedyCalls > 0 && warm.ExpandedLastPlan < warm.NodesLastPlan {
				refused++
			}
		}
		if refused == 0 {
			t.Fatal("no budget both bound and left the table something to answer")
		}
	})

	// Universes of exactly 64 and 65 tasks: the widest tree the table takes
	// and the narrowest it leaves off, laid out on two words.
	for _, n := range []int{64, 65} {
		in := chainInstant(n, 8, 4, 1)
		for _, flat := range []bool{false, true} {
			for _, p := range []int{1, 0} {
				t.Run(fmt.Sprintf("%s/flat=%v/par=%d", in.name, flat, p), func(t *testing.T) {
					o := opts()
					o.WDS.MaxSeqLen, o.MaxNodes, o.Flat, o.Parallelism = 1, 4000, flat, p
					ref := &refSearch{Opts: o}
					want := ref.Plan(in.workers, in.tasks, in.now)
					s := &Search{Opts: o}
					for pass := 0; pass < 2; pass++ {
						sameSearch(t, ref, want, s, s.Plan(in.workers, in.tasks, in.now))
						if len(s.taskOff) != 2 || int(s.taskOff[1]) != n {
							t.Fatalf("universes %v, want one of %d tasks", s.taskOff, n)
						}
						if answered := s.ExpandedLastPlan < s.NodesLastPlan; answered != (n <= 64) {
							t.Fatalf("%d tasks: %d of %d nodes expanded", n, s.ExpandedLastPlan, s.NodesLastPlan)
						}
						if !flat {
							wordPath(t, s, n) // bit 63 included, and 64
						}
					}
					if ref.boundTrees != 1 {
						t.Fatalf("budget bound %d trees, want the one", ref.boundTrees)
					}
				})
			}
		}
	}

	// Full mask rows on a universe of two words: two workers 30 tasks apart on
	// a row of 100, each with 70 in reach and so holding the 64 nearest — 28
	// of them shared — under a budget that runs out: the layout, candidate
	// tests and greedy completions all read bit 63 of a mask row.
	for _, p := range []int{1, 0} {
		t.Run(fmt.Sprintf("chain-100/reach=64/par=%d", p), func(t *testing.T) {
			in := chainInstant(100, 70, 30, 1)
			o := opts()
			o.WDS.MaxReachable, o.WDS.MaxSeqLen, o.MaxNodes, o.Parallelism = 70, 1, 4000, p
			ref := &refSearch{Opts: o, Collect: true}
			want := ref.Plan(in.workers, in.tasks, in.now)
			s := &Search{Opts: o, Collect: true}
			sameOutcome(t, ref, want, s, s.Plan(in.workers, in.tasks, in.now))
			live := &Search{Opts: o}
			sameSearch(t, ref, want, live, live.Plan(in.workers, in.tasks, in.now))
			for i := range in.workers {
				if set := &live.runs[0].sep.Sets[i]; len(set.Index) != 64 || !slices.ContainsFunc(set.Masks, func(m uint64) bool { return m>>63 != 0 }) {
					t.Fatalf("worker %d: %d tasks in reach, or no sequence on the 64th", i, len(set.Index))
				}
			}
			if ref.greedyCalls == 0 || len(want) != 2 {
				t.Fatalf("%d greedy completions, %d workers assigned", ref.greedyCalls, len(want))
			}
		})
	}

	// A universe of three words: four workers with 70 in reach, on a row of
	// 176, each holding its 64 nearest — positions 0–63, 40–103 (bits 63 and
	// 64), 80–143 (127 and 128) and 112–175, the last two contending for word
	// 2 — searched with the budget binding (4000) and not (556,199 nodes),
	// collecting samples, and guided by a value model. No oracle sees the
	// width: refSearch works on tasks.
	wide3 := chainInstant(176, 64, 40, 1)
	for _, c := range []struct {
		name     string
		maxNodes int
		collect  bool
		model    *tvf.Model
	}{
		{"nodes=4000", 4000, false, nil},
		{"nodes=1M", 1 << 20, false, nil},
		{"nodes=4000/collect", 4000, true, nil},
		{"nodes=1M/collect", 1 << 20, true, nil},
		{"tvf", 4000, false, model},
	} {
		for _, p := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/%s/par=%d", wide3.name, c.name, p), func(t *testing.T) {
				o := opts()
				o.WDS.MaxReachable, o.WDS.MaxSeqLen, o.MaxNodes, o.Parallelism = 70, 1, c.maxNodes, p
				ref := &refSearch{Opts: o, Collect: c.collect, Model: c.model}
				want := ref.Plan(wide3.workers, wide3.tasks, wide3.now)
				s := &Search{Opts: o, Collect: c.collect, Model: c.model}
				for pass := 0; pass < 2; pass++ {
					s.Samples = nil
					got := s.Plan(wide3.workers, wide3.tasks, wide3.now)
					if c.collect || c.model != nil {
						sameOutcome(t, ref, want, s, got)
					} else {
						sameSearch(t, ref, want, s, got)
					}
					wordPath(t, s, len(wide3.tasks))
				}
				straddles := func(a, b int32) bool {
					for i := range wide3.workers {
						var at []int32
						for _, task := range s.runs[0].sep.Sets[i].Index {
							at = append(at, s.local[task])
						}
						if slices.Contains(at, a) && slices.Contains(at, b) {
							return true
						}
					}
					return false
				}
				if !straddles(63, 64) || !straddles(127, 128) {
					t.Fatal("no worker reaches across a word boundary")
				}
				if bound := ref.boundTrees == 1; c.model == nil && bound != (c.maxNodes == 4000) {
					t.Fatalf("budget %d bound %d trees", c.maxNodes, ref.boundTrees)
				}
				if len(want) != 4 || c.collect && len(ref.Samples) == 0 {
					t.Fatalf("%d workers assigned, %d samples", len(want), len(ref.Samples))
				}
			})
		}
	}

	// The search where it is most exposed. A starved crowd: 44 workers in
	// four stacks over 10 tasks, which the first five to pick take between them,
	// under budgets small enough that most calls are greedy completions — each
	// a walk over dozens of workers with nothing in reach left, answered by the
	// reach word alone. A pool of real and virtual tasks at a virtual weight of
	// 0.6, and at 1.5, where a task can be worth more than 1 and the bound that
	// skips completions is padded — on one word and, over 80 tasks, on two.
	// And, at 0.1, a tie only seqValue's own arithmetic breaks
	// (valueTieInstant).
	starved := chainInstant(10, 4, 2, 11)
	starved.name = "starved-crowd"
	mixed := chainInstant(12, 6, 3, 3)
	mixed.name = "mixed-virtual"
	wide := chainInstant(80, 6, 3, 3)
	wide.name = "mixed-virtual-wide/vw=1.5"
	for _, in := range []instant{mixed, wide} {
		for i, task := range in.tasks {
			task.Virtual = i%3 != 0
		}
	}
	heavy := mixed
	heavy.name = "mixed-virtual/vw=1.5"
	tie := valueTieInstant()
	for _, c := range []struct {
		in            instant
		seqLen        int
		virtualWeight float64
		budgets       []int
		shape         func(t *testing.T, ref *refSearch, want core.Plan) // what the fixture is built to exhibit
	}{
		{starved, 2, 0, []int{60, 300, 4000}, func(t *testing.T, ref *refSearch, _ core.Plan) {
			if ref.Opts.MaxNodes < 4000 && 2*ref.greedyCalls < ref.NodesLastPlan {
				t.Fatalf("%d of %d nodes are greedy completions: completion does not dominate", ref.greedyCalls, ref.NodesLastPlan)
			}
		}},
		{mixed, 3, 0.6, []int{300, 4000, 20000}, nil},
		{heavy, 3, 1.5, []int{300, 4000}, nil},
		{wide, 3, 1.5, []int{50, 300}, nil},
		{tie, 3, 0.1, []int{4000}, func(t *testing.T, _ *refSearch, want core.Plan) {
			if ids := want[0].Seq.IDs(); !slices.Equal(ids, []int{4, 5, 6}) {
				t.Fatalf("worker 1 holds %v: the sweep worth the last bit more lost", ids)
			}
		}},
	} {
		ran, skipped := 0, false
		for _, maxNodes := range c.budgets {
			for _, p := range []int{1, 0} {
				t.Run(fmt.Sprintf("%s/nodes=%d/par=%d", c.in.name, maxNodes, p), func(t *testing.T) {
					o := opts()
					o.WDS.MaxSeqLen, o.VirtualWeight, o.MaxNodes, o.Parallelism = c.seqLen, c.virtualWeight, maxNodes, p
					ref := &refSearch{Opts: o}
					want := ref.Plan(c.in.workers, c.in.tasks, c.in.now)
					s := &Search{Opts: o}
					for pass := 0; pass < 2; pass++ {
						sameSearch(t, ref, want, s, s.Plan(c.in.workers, c.in.tasks, c.in.now))
						wordPath(t, s, len(c.in.tasks))
						ran++
						skipped = skipped || s.SkippedCompletionsLastPlan > 0
					}
					if len(want) == 0 {
						t.Fatal("nothing was assigned")
					}
					if c.shape != nil {
						c.shape(t, ref, want)
					}
				})
			}
		}
		if c.virtualWeight > 1 && ran > 0 && !skipped {
			t.Fatalf("%s at virtual weight %v: no run skipped a greedy completion: the padded bound went untested", c.in.name, c.virtualWeight)
		}
	}
}

// TestCollectSamplesKnownAliasing pins a known bug, not a contract. Exact
// search builds a call's RL state, recurses, and featurizes with the state
// afterwards; the state's task list is one array shared by every call, so by
// then deeper calls have rewritten it (tasks missing, others duplicated;
// feature 6 reads the list). The dense core reproduces the map-and-scan core
// here sample for sample — TestSearchMatchesReference — because correcting it
// retrains every TVF model and moves DATA-WA outcomes (CHANGES.md, PR 12).
// This test keeps the size of the defect measured against the reference's
// cloned-state switch. When the fix lands, Search will match cloneState: make
// that the reference's only behaviour and turn this into the regression test.
func TestCollectSamplesKnownAliasing(t *testing.T) {
	a, _ := scenario.Get("event-spike")
	in := atlasInstantsOf(a, 1)[0]
	o := opts()
	o.MaxNodes = 4000

	cloned := &refSearch{Opts: o, Collect: true, cloneState: true}
	cloned.Plan(in.workers, in.tasks, in.now)
	s := &Search{Opts: o, Collect: true}
	s.Plan(in.workers, in.tasks, in.now)
	if len(s.Samples) != len(cloned.Samples) {
		t.Fatalf("%d samples, cloned-state reference %d: aliasing must not change which samples are taken", len(s.Samples), len(cloned.Samples))
	}
	corrupted := 0
	for i := range cloned.Samples {
		if s.Samples[i].Opt != cloned.Samples[i].Opt {
			t.Fatalf("sample %d: target %v, cloned-state reference %v: aliasing must only touch features", i, s.Samples[i].Opt, cloned.Samples[i].Opt)
		}
		if s.Samples[i] != cloned.Samples[i] {
			corrupted++
		}
	}
	t.Logf("%d of %d samples are featurized from a rewritten task list", corrupted, len(cloned.Samples))
	if corrupted == 0 {
		t.Fatal("Search now matches the cloned-state reference: the aliasing bug is fixed — see this test's comment")
	}
}

// scanInstants returns the pools the sequential planners are held to their
// map-and-scan references on: the atlas instants with a virtual task published
// half a minute out beside every fourth real one, then the shapes the
// availability flags and the per-instant index have to get right.
func scanInstants() []instant {
	var out []instant
	for _, in := range atlasInstants() {
		n := len(in.tasks)
		for i := 0; i < n; i += 4 {
			s := in.tasks[i]
			in.tasks = append(in.tasks, &core.Task{ID: -1 - i, Loc: geo.Point{X: s.Loc.X + 0.05, Y: s.Loc.Y},
				Pub: in.now + 30, Exp: in.now + 150, Cell: -1, Virtual: true})
		}
		out = append(out, in)
	}
	crowd := out[2] // courier-grid/crowd
	if crowd.name != "courier-grid/crowd" {
		panic("atlas order changed: " + crowd.name)
	}

	unsorted := crowd
	unsorted.name = "unsorted-workers"
	unsorted.workers = slices.Clone(crowd.workers)
	slices.Reverse(unsorted.workers)
	out = append(out, unsorted)

	// A repeated id plans once, at its first position: the same task again,
	// and another task under a used id next to a worker that would want it.
	repeated := crowd
	repeated.name = "repeated-id"
	first, w := crowd.tasks[0], crowd.workers[0]
	repeated.tasks = append(slices.Clone(crowd.tasks), first, crowd.tasks[len(crowd.tasks)/2],
		&core.Task{ID: first.ID, Loc: w.Loc, Pub: first.Pub, Exp: first.Exp, Cell: -1})
	out = append(out, repeated)

	empty := crowd
	empty.name, empty.tasks = "empty-pool", nil
	out = append(out, empty)

	// No worker has any reach: the index has no cell size to work with and
	// answers by scanning; only a task under a worker's feet is reachable.
	flat := instant{name: "zero-reach", now: crowd.now, tasks: crowd.tasks}
	for i, w := range crowd.workers {
		c := *w
		c.Reach = 0
		if i%2 == 0 {
			c.Loc = crowd.tasks[i%len(crowd.tasks)].Loc
		}
		flat.workers = append(flat.workers, &c)
	}
	return append(out, flat)
}

// sameScan runs one warm planner over every scan instant, twice each, and
// asserts the reference's plan: the same workers in the same order holding the
// same tasks — the very pointers — in the same order.
func sameScan(t *testing.T, plan, ref func(in instant) core.Plan) {
	assigned := 0
	for _, in := range scanInstants() {
		want := ref(in)
		assigned += want.Size()
		for pass := 0; pass < 2; pass++ {
			got := plan(in)
			samePlans(t, want, got)
			for i := range want {
				if got[i].Worker != want[i].Worker || !slices.Equal(got[i].Seq, want[i].Seq) {
					t.Fatalf("%s: assignment %d holds other worker or task values than the reference's", in.name, i)
				}
			}
		}
		if in.name == "empty-pool" && len(want) != 0 || in.name == "zero-reach" && len(want) == 0 {
			t.Fatalf("%s: reference plan has %d assignments", in.name, len(want))
		}
	}
	if assigned == 0 {
		t.Fatal("nothing was assigned")
	}
}

// TestGreedyMatchesReference: the indexed worker scan with the
// branch-and-bound pick returns what the generate-everything Greedy returned.
func TestGreedyMatchesReference(t *testing.T) {
	for _, c := range []struct{ seqLen, reach int }{{0, 0}, {1, 3}, {2, 64}} {
		o := opts()
		o.WDS.MaxSeqLen, o.WDS.MaxReachable = c.seqLen, c.reach
		g := &Greedy{Opts: o}
		sameScan(t,
			func(in instant) core.Plan { return g.Plan(in.workers, in.tasks, in.now) },
			func(in instant) core.Plan { return refGreedy(o, in.workers, in.tasks, in.now) })
	}
}

// TestMatchMatchesReference: likewise the matcher, virtual tasks passed over.
func TestMatchMatchesReference(t *testing.T) {
	m := &Match{Opts: opts()}
	sameScan(t,
		func(in instant) core.Plan { return m.Plan(in.workers, in.tasks, in.now) },
		func(in instant) core.Plan { return refMatch(opts(), in.workers, in.tasks, in.now) })
}
