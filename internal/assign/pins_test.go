package assign

import (
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tvf"
	"repro/internal/wds"
)

var update = flag.Bool("update", false, "rewrite the pin files under testdata from this run")

// pinFile is a checked-in table of golden rows, one a line: a key, a tab and
// what the key produced, under a header of # lines. check holds each row a
// test produces to the file and to every earlier row of its key in the run;
// with -update, save rewrites the file from the run instead, in key order.
type pinFile struct {
	path, prefix, header, cmd string
	want, got                 map[string]string
}

// loadPins reads the pin file at path, of which the test holds the rows whose
// keys start with prefix.
func loadPins(t *testing.T, path, prefix, header, cmd string) *pinFile {
	t.Helper()
	p := &pinFile{path, prefix, header, cmd, map[string]string{}, map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatalf("%v: run %s to write it", err, cmd)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, row, ok := strings.Cut(line, "\t"); ok && !strings.HasPrefix(line, "#") {
			p.want[key] = row
		}
	}
	return p
}

func (p *pinFile) check(t *testing.T, key, row string) {
	t.Helper()
	want, ok := p.got[key]
	if !ok {
		if p.got[key] = row; *update {
			return
		}
		want, ok = p.want[key]
	}
	if !ok || row != want {
		t.Fatalf("%s: %s\nwant %s\nIf the change is meant, run %s and commit the diff of %s.", key, row, want, p.cmd, p.path)
	}
}

// save holds that the run produced every row of the test's — unless -run cut
// it to some of its subtests — and under -update rewrites the file, dropping
// the rows it did not produce.
func (p *pinFile) save(t *testing.T) {
	t.Helper()
	whole := !strings.Contains(flag.Lookup("test.run").Value.String(), "/")
	for _, key := range slices.Sorted(maps.Keys(p.want)) {
		if _, ok := p.got[key]; ok || !whole || t.Failed() || !strings.HasPrefix(key, p.prefix) {
			continue
		}
		if !*update {
			t.Fatalf("%s is pinned in %s, but no run produced it; if that is meant, run %s", key, p.path, p.cmd)
		}
		delete(p.want, key)
	}
	if !*update {
		return
	}
	maps.Copy(p.want, p.got)
	var b strings.Builder
	b.WriteString(p.header)
	for _, key := range slices.Sorted(maps.Keys(p.want)) {
		fmt.Fprintf(&b, "%s\t%s\n", key, p.want[key])
	}
	if err := os.WriteFile(p.path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// planHash is an FNV-1a hash of a plan: each assignment's worker id and its
// tasks' ids and locations, in order.
func planHash(p core.Plan) uint64 {
	h := fnv.New64a()
	for _, a := range p {
		fmt.Fprint(h, a.Worker.ID, ":")
		for _, s := range a.Seq {
			fmt.Fprint(h, s.ID, s.Loc, ",")
		}
		fmt.Fprint(h, ";")
	}
	return h.Sum64()
}

// samplesHash hashes an RL sample stream: each sample's target, and its
// features rounded to float32, so that a last-bit difference in featurizing
// arithmetic (a fused multiply-add) does not move the pin.
func samplesHash(samples []tvf.Sample) uint64 {
	h := fnv.New64a()
	for _, sm := range samples {
		for _, f := range sm.Features {
			fmt.Fprintf(h, "%x,", math.Float32bits(float32(f)))
		}
		fmt.Fprintf(h, "%x;", math.Float64bits(sm.Opt))
	}
	return h.Sum64()
}

// searchRow is what a Search plan call pins: the plan and every counter, and
// the sample stream when the search collects one.
func searchRow(s *Search, p core.Plan) string {
	row := fmt.Sprintf("plan=%016x assigned=%d nodes=%d expanded=%d greedy=%d skipped=%d bound=%d",
		planHash(p), p.Size(), s.NodesLastPlan, s.ExpandedLastPlan, s.GreedyCompletionsLastPlan,
		s.SkippedCompletionsLastPlan, s.BudgetBoundTreesLastPlan)
	if s.Collect {
		row += fmt.Sprintf(" samples=%d/%016x", len(s.Samples), samplesHash(s.Samples))
	}
	return row
}

// checked is a Planner whose every plan is held to core.Plan.Check: a test
// that plans through it fails on the first infeasible plan.
type checked struct{ Planner }

func (c checked) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	p := c.Planner.Plan(workers, tasks, now)
	if err := p.Check(workers, tasks, now, c.Travel()); err != nil {
		panic(fmt.Sprintf("%s planned an infeasible plan: %v", c.Name(), err))
	}
	return p
}

const searchHeader = `# Golden rows of TestSearchMatchesReference, one per (instant, configuration):
# key, a tab, then the plan's hash (worker ids, task ids and locations, in
# order), its size and Search's counters. A Collect run adds its sample stream:
# count and hash, features rounded to float32. A /live row is the same
# configuration planned without Collect, the run the transposition table
# serves. The tvf rows are planned under tvf.NewModel(16, 7) untrained: weights
# fixed by the seed, not by training arithmetic. Every row holds at
# Parallelism 1 and 0, on a fresh Search and a warm one. Regenerate with
#   go test ./internal/assign -run '^TestSearchMatchesReference$' -update
`

// TestSearchMatchesReference holds Search to its pins (testdata/search.pins)
// on the crowd and median instants of every atlas archetype — with the budget
// binding and not, the RTC tree on and flattened, serial and parallel, cold
// and warm, collecting samples and not, guided by a value model, and with the
// reachable sets uncapped — and on fixtures built to expose the transposition
// table (every budget a small tree can run out on, universes either side of
// the one word it takes), the word layout (bits 63/64 and 127/128) and the
// completion bound (a virtual weight above 1, where it is padded). What needs
// no pin is checked outright: every plan is feasible, the table answers and
// the completion bound skips on every crowd instant, a budget binds, and the
// layout is the Separation's (wordPath).
func TestSearchMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 20 atlas instants 18 ways each")
	}
	pins := loadPins(t, "testdata/search.pins", "", searchHeader, "go test ./internal/assign -run '^TestSearchMatchesReference$' -update")
	defer pins.save(t)
	// plan plans in on s, checks the plan and the counters, and pins them.
	plan := func(t *testing.T, key string, s *Search, in instant) core.Plan {
		t.Helper()
		s.Samples = nil
		got := checked{s}.Plan(in.workers, in.tasks, in.now)
		pins.check(t, key, searchRow(s, got))
		// Runs that collect samples or follow a model never consult the table.
		if (s.Collect || s.Model != nil) && (s.ExpandedLastPlan != s.NodesLastPlan || s.SkippedCompletionsLastPlan != 0) ||
			s.ExpandedLastPlan > s.NodesLastPlan || s.SkippedCompletionsLastPlan > s.GreedyCompletionsLastPlan {
			t.Fatalf("%s: %s", key, searchRow(s, got))
		}
		return got
	}
	model := tvf.NewModel(16, 7)

	// Every budget from 1 to the unbudgeted node count of a four-worker row:
	// whichever call the budget falls on, a stored subproblem that would carry
	// the count across it must be expanded again. One row pins them all: the
	// budgets run, how many of them both bound and left the table something
	// to answer, and a hash of their rows.
	t.Run("chain-10/budgets", func(t *testing.T) {
		in := chainInstant(10, 4, 2, 1)
		o := opts()
		o.WDS.MaxSeqLen = 2
		o.MaxNodes = 1 << 30
		free := &Search{Opts: o}
		plan(t, "chain-10/unbudgeted", free, in)
		if free.GreedyCompletionsLastPlan != 0 || free.ExpandedLastPlan >= free.NodesLastPlan {
			t.Fatalf("unbudgeted: %d nodes, %d expanded, %d greedy", free.NodesLastPlan, free.ExpandedLastPlan, free.GreedyCompletionsLastPlan)
		}
		warm, refused, h := &Search{}, 0, fnv.New64a()
		for o.MaxNodes = 1; o.MaxNodes <= free.NodesLastPlan; o.MaxNodes++ {
			warm.Opts = o
			got := checked{warm}.Plan(in.workers, in.tasks, in.now)
			fmt.Fprintln(h, searchRow(warm, got))
			if warm.GreedyCompletionsLastPlan > 0 && warm.ExpandedLastPlan < warm.NodesLastPlan {
				refused++
			}
		}
		if refused == 0 {
			t.Fatal("no budget both bound and left the table something to answer")
		}
		pins.check(t, "chain-10/budgets", fmt.Sprintf("budgets=%d refused=%d rows=%016x", free.NodesLastPlan, refused, h.Sum64()))
	})

	// Fixtures built to expose the search, each planned twice at Parallelism
	// 1 and 0 and pinned under its name; words marks the ones whose layout
	// wordPath checks, and check is what the fixture is built to exhibit.
	type fixture struct {
		name    string
		in      instant
		o       Options
		collect bool
		model   *tvf.Model
		words   bool
		check   func(t *testing.T, s *Search, got core.Plan)
	}
	var fixtures []fixture
	with := func(f func(o *Options)) Options {
		o := opts()
		f(&o)
		return o
	}

	// Every atlas instant with the budget binding and not, the tree on and
	// flattened, guided by a value model, and with the reachable sets uncapped
	// — asking for 70 is asking for 64 (wds.Options), which at atlas densities,
	// at most 46 in reach, is every one of them. Each collects samples, or
	// follows the model, and a search without either (the one the live
	// planners run, and the one the transposition table serves) is pinned
	// beside it as /live. On every crowd instant the table must answer and
	// the completion bound skip somewhere, and on the atlas a budget bind.
	type use struct{ ran, answered, skipped, bound bool }
	uses := map[string]*use{}
	for _, in := range atlasInstants() {
		u := &use{}
		uses[in.name] = u
		add := func(name string, o Options) {
			fixtures = append(fixtures, fixture{name, in, o, true, nil, false, func(t *testing.T, s *Search, _ core.Plan) {
				live := &Search{Opts: s.Opts}
				u.ran = true
				for pass := 0; pass < 2; pass++ {
					plan(t, name+"/live", live, in)
					u.answered = u.answered || live.ExpandedLastPlan < live.NodesLastPlan
					u.skipped = u.skipped || live.SkippedCompletionsLastPlan > 0
					u.bound = u.bound || live.BudgetBoundTreesLastPlan > 0
				}
			}})
		}
		for _, maxNodes := range []int{50, 4000, 20000} {
			for _, flat := range []bool{false, true} {
				add(fmt.Sprintf("%s/nodes=%d/flat=%v", in.name, maxNodes, flat), with(func(o *Options) { o.MaxNodes, o.Flat = maxNodes, flat }))
			}
		}
		fixtures = append(fixtures, fixture{in.name + "/tvf", in, opts(), false, model, false, nil})
		add(in.name+"/reach=70", with(func(o *Options) { o.MaxNodes, o.WDS.MaxReachable, o.WDS.MaxSeqLen = 4000, 70, 2 }))
	}
	defer func() {
		ran, bound := false, false
		for name, u := range uses {
			ran, bound = ran || u.ran, bound || u.bound
			if crowd := strings.HasSuffix(name, "/crowd") && u.ran; crowd && !u.answered {
				t.Errorf("%s: no run expanded fewer nodes than it reports: the transposition table was bypassed", name)
			} else if crowd && !u.skipped {
				t.Errorf("%s: no run skipped a greedy completion: the completion bound went untested", name)
			}
		}
		if ran && !bound {
			t.Error("no configuration exhausted a tree's node budget: the greedy-completion path went untested")
		}
	}()

	// Universes of exactly 64 and 65 tasks: the widest tree the table takes
	// and the narrowest it leaves off, laid out on two words (bit 63 included,
	// and 64).
	for _, n := range []int{64, 65} {
		for _, flat := range []bool{false, true} {
			fixtures = append(fixtures, fixture{fmt.Sprintf("chain-%d/flat=%v", n, flat), chainInstant(n, 8, 4, 1),
				with(func(o *Options) { o.WDS.MaxSeqLen, o.MaxNodes, o.Flat = 1, 4000, flat }), false, nil, !flat,
				func(t *testing.T, s *Search, _ core.Plan) {
					if len(s.taskOff) != 2 || int(s.taskOff[1]) != n {
						t.Fatalf("universes %v, want one of %d tasks", s.taskOff, n)
					}
					if answered := s.ExpandedLastPlan < s.NodesLastPlan; answered != (n <= 64) || s.BudgetBoundTreesLastPlan != 1 {
						t.Fatalf("%d tasks: %d of %d nodes expanded, %d trees budget-bound", n, s.ExpandedLastPlan, s.NodesLastPlan, s.BudgetBoundTreesLastPlan)
					}
				}})
		}
	}

	// Full mask rows on a universe of two words: two workers 30 tasks apart on
	// a row of 100, each with 70 in reach and so holding the 64 nearest — 28
	// of them shared — under a budget that runs out: the layout, candidate
	// tests and greedy completions all read bit 63 of a mask row.
	chain100 := chainInstant(100, 70, 30, 1)
	fixtures = append(fixtures, fixture{"chain-100/reach=64", chain100,
		with(func(o *Options) { o.WDS.MaxReachable, o.WDS.MaxSeqLen, o.MaxNodes = 70, 1, 4000 }), true, nil, false,
		func(t *testing.T, s *Search, got core.Plan) {
			live := &Search{Opts: s.Opts}
			plan(t, "chain-100/reach=64/live", live, chain100)
			for i := range chain100.workers {
				if set := &live.runs[0].sep.Sets[i]; len(set.Index) != 64 || !slices.ContainsFunc(set.Masks, func(m uint64) bool { return m>>63 != 0 }) {
					t.Fatalf("worker %d: %d tasks in reach, or no sequence on the 64th", i, len(set.Index))
				}
			}
			if live.GreedyCompletionsLastPlan == 0 || len(got) != 2 {
				t.Fatalf("%d greedy completions, %d workers assigned", live.GreedyCompletionsLastPlan, len(got))
			}
		}})

	// A universe of three words: four workers with 70 in reach, on a row of
	// 176, each holding its 64 nearest — positions 0–63, 40–103 (bits 63 and
	// 64), 80–143 (127 and 128) and 112–175, the last two contending for word
	// 2 — searched with the budget binding (4000) and not (555,159 nodes),
	// collecting samples, and guided by a value model.
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
		fixtures = append(fixtures, fixture{wide3.name + "/" + c.name, wide3,
			with(func(o *Options) { o.WDS.MaxReachable, o.WDS.MaxSeqLen, o.MaxNodes = 70, 1, c.maxNodes }), c.collect, c.model, true,
			func(t *testing.T, s *Search, got core.Plan) {
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
				if bound := s.BudgetBoundTreesLastPlan == 1; c.model == nil && bound != (c.maxNodes == 4000) {
					t.Fatalf("budget %d bound %d trees", c.maxNodes, s.BudgetBoundTreesLastPlan)
				}
				if len(got) != 4 || c.collect && len(s.Samples) == 0 {
					t.Fatalf("%d workers assigned, %d samples", len(got), len(s.Samples))
				}
			}})
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
	for _, c := range []struct {
		in            instant
		seqLen        int
		virtualWeight float64
		budgets       []int
		shape         func(t *testing.T, s *Search, got core.Plan)
	}{
		{starved, 2, 0, []int{60, 300, 4000}, func(t *testing.T, s *Search, _ core.Plan) {
			if s.Opts.MaxNodes < 4000 && 2*s.GreedyCompletionsLastPlan < s.NodesLastPlan {
				t.Fatalf("%d of %d nodes are greedy completions: completion does not dominate", s.GreedyCompletionsLastPlan, s.NodesLastPlan)
			}
		}},
		{mixed, 3, 0.6, []int{300, 4000, 20000}, nil},
		{heavy, 3, 1.5, []int{300, 4000}, nil},
		{wide, 3, 1.5, []int{50, 300}, nil},
		{valueTieInstant(), 3, 0.1, []int{4000}, func(t *testing.T, _ *Search, got core.Plan) {
			if ids := got[0].Seq.IDs(); !slices.Equal(ids, []int{4, 5, 6}) {
				t.Fatalf("worker 1 holds %v: the sweep worth the last bit more lost", ids)
			}
		}},
	} {
		for _, maxNodes := range c.budgets {
			fixtures = append(fixtures, fixture{fmt.Sprintf("%s/nodes=%d", c.in.name, maxNodes), c.in,
				with(func(o *Options) { o.WDS.MaxSeqLen, o.VirtualWeight, o.MaxNodes = c.seqLen, c.virtualWeight, maxNodes }), false, nil, true,
				func(t *testing.T, s *Search, got core.Plan) {
					if len(got) == 0 {
						t.Fatal("nothing was assigned")
					}
					if c.virtualWeight > 1 && s.SkippedCompletionsLastPlan == 0 {
						t.Fatal("no greedy completion skipped: the padded bound went untested")
					}
					if c.shape != nil {
						c.shape(t, s, got)
					}
				}})
		}
	}

	for _, f := range fixtures {
		for _, p := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/par=%d", f.name, p), func(t *testing.T) {
				o := f.o
				o.Parallelism = p
				s := &Search{Opts: o, Collect: f.collect, Model: f.model}
				var got core.Plan
				for pass := 0; pass < 2; pass++ {
					got = plan(t, f.name, s, f.in)
					if f.words {
						wordPath(t, s, len(f.in.tasks))
					}
				}
				if f.check != nil {
					f.check(t, s, got)
				}
			})
		}
	}
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

// scanPins pins a sequential planner's plan of every scan instant under
// prefix: one warm planner over them all, each planned twice.
func scanPins(t *testing.T, prefix string, p Planner) {
	t.Helper()
	pins := loadPins(t, "testdata/scan.pins", prefix+"/", `# Golden rows of TestGreedyMatchesReference and TestMatchMatchesReference:
# planner and instant, a tab, then the plan's hash (worker ids, task ids and
# locations, in order) and its size. Regenerate with
#   go test ./internal/assign -run 'Test(Greedy|Match)MatchesReference' -update
`, "go test ./internal/assign -run 'Test(Greedy|Match)MatchesReference' -update")
	defer pins.save(t)
	assigned := 0
	for _, in := range scanInstants() {
		var got core.Plan
		for pass := 0; pass < 2; pass++ {
			got = checked{p}.Plan(in.workers, in.tasks, in.now)
			pins.check(t, prefix+"/"+in.name, fmt.Sprintf("plan=%016x assigned=%d", planHash(got), got.Size()))
		}
		assigned += got.Size()
		if in.name == "empty-pool" && len(got) != 0 || in.name == "zero-reach" && len(got) == 0 {
			t.Fatalf("%s: %d assignments", in.name, len(got))
		}
	}
	if assigned == 0 {
		t.Fatal("nothing was assigned")
	}
}

// TestGreedyMatchesReference holds the indexed worker scan with the
// branch-and-bound pick to its pins (testdata/scan.pins).
func TestGreedyMatchesReference(t *testing.T) {
	for _, c := range []struct{ seqLen, reach int }{{0, 0}, {1, 3}, {2, 64}} {
		o := opts()
		o.WDS.MaxSeqLen, o.WDS.MaxReachable = c.seqLen, c.reach
		scanPins(t, fmt.Sprintf("greedy/seqlen=%d/reach=%d", c.seqLen, c.reach), &Greedy{Opts: o})
	}
}

// TestMatchMatchesReference: likewise the matcher, virtual tasks passed over.
func TestMatchMatchesReference(t *testing.T) {
	scanPins(t, "match", &Match{Opts: opts()})
}

// seqsOf resolves worker i's Q_w to task sequences, in Q_w order.
func seqsOf(sep *wds.Separation, i int) []core.Sequence {
	q := make([]core.Sequence, len(sep.Sets[i].Masks))
	for k := range q {
		q[k] = slices.Clip(sep.Sets[i].AppendSeq(nil, sep.Tasks, k))
	}
	return q
}

// seqValue is the search objective contribution of a sequence, summed along
// it: 1 per real task, VirtualWeight per virtual task.
func seqValue(q core.Sequence, virtualWeight float64) float64 {
	v := 0.0
	for _, s := range q {
		if s.Virtual {
			v += virtualWeight
		} else {
			v++
		}
	}
	return v
}
