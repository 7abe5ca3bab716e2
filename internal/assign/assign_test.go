package assign

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/tvf"
	"repro/internal/wds"
)

var travel = geo.NewTravelModel(0.01)

func opts() Options {
	return Options{WDS: wds.Options{Travel: travel}}
}

func task(id int, x, y, pub, exp float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: exp, Cell: -1}
}

func vtask(id int, x, y, pub, exp float64) *core.Task {
	t := task(id, x, y, pub, exp)
	t.Virtual = true
	return t
}

func worker(id int, x, y, reach, on, off float64) *core.Worker {
	return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: on, Off: off}
}

func TestGreedyAssignsMaximalSet(t *testing.T) {
	w := worker(1, 0, 0, 2, 0, 1e5)
	tasks := []*core.Task{
		task(1, 0.2, 0, 0, 1e5),
		task(2, 0.4, 0, 0, 1e5),
		task(3, 0.6, 0, 0, 1e5),
	}
	g := &Greedy{Opts: opts()}
	plan := checked{g}.Plan([]*core.Worker{w}, tasks, 0)
	if plan.Size() != 3 {
		t.Errorf("greedy assigned %d tasks, want all 3 (MaxSeqLen default)", plan.Size())
	}
}

func TestGreedyNoDoubleAssignment(t *testing.T) {
	// One task reachable by two workers: only one may get it.
	w1 := worker(1, 0, 0, 1, 0, 1e5)
	w2 := worker(2, 0.1, 0, 1, 0, 1e5)
	tasks := []*core.Task{task(1, 0.05, 0, 0, 1e5)}
	plan := checked{&Greedy{Opts: opts()}}.Plan([]*core.Worker{w1, w2}, tasks, 0)
	if plan.Size() != 1 {
		t.Errorf("assigned %d, want 1", plan.Size())
	}
	// Deterministic: lower id wins.
	if plan[0].Worker.ID != 1 {
		t.Errorf("worker %d got the task, want worker 1", plan[0].Worker.ID)
	}
}

// TestIDSetMatchesMap holds the scan's id set to a map over plans of
// random ids — negative, colliding and repeated — reusing one set, growing it,
// and across the wrap of its stamps, right after a plan whose slots carry the
// stamp the wrap starts again from.
func TestIDSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s idSet
	for plan := 0; plan < 200; plan++ {
		n := 1 + r.Intn(300)
		switch plan {
		case 0:
			n = 200
		case 1:
			n, s.stamp = 200, ^uint32(0) // plan 0's stamp, 1, is next
		}
		s.reset(n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			id := r.Intn(2*n+1) - n
			if i%5 == 4 {
				id = id << (bits.UintSize - 24) // ids that share their low bits
			}
			if got, want := s.add(id), !seen[id]; got != want {
				t.Fatalf("plan %d: add(%d) = %v, want %v", plan, id, got, want)
			}
			seen[id] = true
		}
	}
}

func TestGreedyEmptyInputs(t *testing.T) {
	g := &Greedy{Opts: opts()}
	if plan := (checked{g}).Plan(nil, nil, 0); len(plan) != 0 {
		t.Error("empty inputs should give an empty plan")
	}
	if g.Name() != "Greedy" {
		t.Error("name")
	}
}

func TestExactSearchBeatsGreedyOnConflict(t *testing.T) {
	// Classic conflict: w1 can serve t1 or t2; w2 can only serve t1.
	// Greedy (by id) hands t1 (nearest) to w1, starving w2 → 1 task.
	// DFSearch assigns t2→w1, t1→w2 → 2 tasks.
	w1 := worker(1, 0, 0, 1, 0, 1e5)
	w2 := worker(2, 0.4, 0, 0.3, 0, 1e5)
	t1 := task(1, 0.2, 0, 0, 1e5) // near w1, the only task w2 reaches
	t2 := task(2, 0, 0.9, 0, 1e5) // only w1 reaches
	o := opts()
	o.WDS.MaxSeqLen = 1 // force the conflict (one task per worker)

	greedy := checked{&Greedy{Opts: o}}.Plan([]*core.Worker{w1, w2}, []*core.Task{t1, t2}, 0)
	exact := checked{&Search{Opts: o}}.Plan([]*core.Worker{w1, w2}, []*core.Task{t1, t2}, 0)

	if greedy.Size() != 1 {
		t.Errorf("greedy assigned %d, expected the myopic 1", greedy.Size())
	}
	if exact.Size() != 2 {
		t.Errorf("DFSearch assigned %d, want the optimal 2", exact.Size())
	}
}

func TestExactSearchMatchesBruteForceSmall(t *testing.T) {
	// Cross-check the tree search against the optimum oracle on random small
	// instances with MaxSeqLen 1 (assignment-problem flavor).
	r := rand.New(rand.NewSource(33))
	o := opts()
	o.WDS.MaxSeqLen = 1
	for trial := 0; trial < 40; trial++ {
		var workers []*core.Worker
		for i := 0; i < 4; i++ {
			workers = append(workers, worker(i+1, r.Float64(), r.Float64(), 0.3+r.Float64()*0.4, 0, 1e5))
		}
		var tasks []*core.Task
		for i := 0; i < 5; i++ {
			tasks = append(tasks, task(i+1, r.Float64(), r.Float64(), 0, 1e5))
		}
		plan := checked{&Search{Opts: o}}.Plan(workers, tasks, 0)
		if want := optimum(workers, tasks, 0, o, false); float64(plan.Size()) != want {
			t.Fatalf("trial %d: DFSearch=%d optimum=%v", trial, plan.Size(), want)
		}
	}
}

func TestSearchVirtualWeightPrefersReal(t *testing.T) {
	// A worker able to serve either one real task or one virtual task
	// (not both) must pick the real one under VirtualWeight < 1.
	w := worker(1, 0, 0, 1, 0, 130)
	real := task(1, 0.5, 0, 0, 1e5)
	virt := vtask(-1, 0, 0.5, 0, 1e5)
	o := opts()
	o.WDS.MaxSeqLen = 1
	plan := checked{&Search{Opts: o}}.Plan([]*core.Worker{w}, []*core.Task{real, virt}, 0)
	if plan.Size() != 1 || plan[0].Seq[0].ID != 1 {
		t.Fatalf("plan = %v, want the real task", plan)
	}
}

func TestSearchCollectsSamples(t *testing.T) {
	w1 := worker(1, 0, 0, 1, 0, 1e5)
	w2 := worker(2, 0.1, 0, 1, 0, 1e5)
	tasks := []*core.Task{task(1, 0.05, 0, 0, 1e5), task(2, 0.2, 0, 0, 1e5)}
	s := &Search{Opts: opts(), Collect: true}
	checked{s}.Plan([]*core.Worker{w1, w2}, tasks, 0)
	if len(s.Samples) == 0 {
		t.Fatal("exact search with Collect must emit samples")
	}
	for _, sm := range s.Samples {
		if sm.Opt < 0 {
			t.Errorf("opt target %v negative", sm.Opt)
		}
		if sm.Features[0] != 1 {
			t.Error("bias feature missing")
		}
	}
	// CollectSamples convenience wrapper agrees.
	if got := CollectSamples([]*core.Worker{w1, w2}, tasks, 0, opts()); len(got) != len(s.Samples) {
		t.Errorf("CollectSamples returned %d, want %d", len(got), len(s.Samples))
	}
}

// TestCollectStreamStopsAtRunCap drives one Collect Search over the 1x
// event-spike crowd again and again, as a training prefix replans its crowds:
// each call adds at most maxSamples, the stream reaches maxRunSamples and holds
// there, and a call at the cap plans and counts what the first call did.
func TestCollectStreamStopsAtRunCap(t *testing.T) {
	a, _ := scenario.Get("event-spike")
	in := atlasInstantsOf(a, 1)[0]
	// Sized once: the stream's backing array is what the cap bounds.
	s := &Search{Collect: true, Samples: make([]tvf.Sample, 0, maxRunSamples)}
	first := s.Plan(in.workers, in.tasks, in.now)
	nodes, work := s.NodesLastPlan, s.Work()
	if len(s.Samples) != maxSamples {
		t.Fatalf("the crowd collects %d samples a call, want the per-call cap %d", len(s.Samples), maxSamples)
	}
	for calls := 1; len(s.Samples) < maxRunSamples; calls++ {
		if calls > maxRunSamples/maxSamples {
			t.Fatalf("%d calls collected %d samples, want %d", calls, len(s.Samples), maxRunSamples)
		}
		before := len(s.Samples)
		s.Plan(in.workers, in.tasks, in.now)
		if added := len(s.Samples) - before; added < 1 || added > maxSamples {
			t.Fatalf("call %d added %d samples, want 1 to %d", calls+1, added, maxSamples)
		}
	}
	if len(s.Samples) != maxRunSamples || cap(s.Samples) != maxRunSamples {
		t.Fatalf("stream holds %d samples (capacity %d), want %d", len(s.Samples), cap(s.Samples), maxRunSamples)
	}
	again := s.Plan(in.workers, in.tasks, in.now)
	if len(s.Samples) != maxRunSamples {
		t.Fatalf("a call at the cap grew the stream to %d", len(s.Samples))
	}
	samePlans(t, first, again)
	if s.NodesLastPlan != nodes || s.Work() != work {
		t.Fatalf("at the cap: %d nodes, %d work; the first call %d, %d", s.NodesLastPlan, s.Work(), nodes, work)
	}
}

func TestSearchTVFProducesValidPlans(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	// Train a quick TVF on collected samples, then verify Algorithm 2
	// yields consistent valid plans.
	var samples []tvf.Sample
	var workers []*core.Worker
	var tasks []*core.Task
	for i := 0; i < 6; i++ {
		workers = append(workers, worker(i+1, r.Float64(), r.Float64(), 0.8, 0, 1e5))
	}
	for i := 0; i < 10; i++ {
		tasks = append(tasks, task(i+1, r.Float64(), r.Float64(), 0, 1e5))
	}
	samples = CollectSamples(workers, tasks, 0, opts())
	model := tvf.NewModel(16, 36)
	model.Train(samples, tvf.TrainConfig{Epochs: 15, Seed: 36})

	s := &Search{Opts: opts(), Model: model}
	if s.Name() != "DFSearch_TVF" {
		t.Errorf("name = %q", s.Name())
	}
	checked{s}.Plan(workers, tasks, 0) // panics on an infeasible plan
}

func TestSearchTVFNeverBacktracks(t *testing.T) {
	// Node count for TVF search is linear in tree size, far below the
	// exact search on the same instance.
	r := rand.New(rand.NewSource(37))
	var workers []*core.Worker
	var tasks []*core.Task
	for i := 0; i < 8; i++ {
		workers = append(workers, worker(i+1, r.Float64(), r.Float64(), 1.2, 0, 1e5))
	}
	for i := 0; i < 12; i++ {
		tasks = append(tasks, task(i+1, r.Float64(), r.Float64(), 0, 1e5))
	}
	exact := &Search{Opts: opts()}
	checked{exact}.Plan(workers, tasks, 0)
	model := tvf.NewModel(8, 38)
	fast := &Search{Opts: opts(), Model: model}
	checked{fast}.Plan(workers, tasks, 0)
	if fast.NodesLastPlan >= exact.NodesLastPlan {
		t.Errorf("TVF nodes %d should be below exact nodes %d", fast.NodesLastPlan, exact.NodesLastPlan)
	}
}

func TestSearchNodeBudgetFallback(t *testing.T) {
	// With a tiny node budget the search must still return a valid,
	// non-trivial plan via greedy completion.
	r := rand.New(rand.NewSource(39))
	var workers []*core.Worker
	var tasks []*core.Task
	for i := 0; i < 10; i++ {
		workers = append(workers, worker(i+1, r.Float64(), r.Float64(), 1.5, 0, 1e5))
	}
	for i := 0; i < 15; i++ {
		tasks = append(tasks, task(i+1, r.Float64(), r.Float64(), 0, 1e5))
	}
	o := opts()
	o.MaxNodes = 5
	plan := checked{&Search{Opts: o}}.Plan(workers, tasks, 0)
	if plan.Size() == 0 {
		t.Error("budgeted search should still assign tasks")
	}
}

func TestSearchDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var workers []*core.Worker
	var tasks []*core.Task
	for i := 0; i < 6; i++ {
		workers = append(workers, worker(i+1, r.Float64()*2, r.Float64()*2, 1, 0, 1e5))
	}
	for i := 0; i < 9; i++ {
		tasks = append(tasks, task(i+1, r.Float64()*2, r.Float64()*2, 0, 1e5))
	}
	a := checked{&Search{Opts: opts()}}.Plan(workers, tasks, 0)
	b := checked{&Search{Opts: opts()}}.Plan(workers, tasks, 0)
	if a.Size() != b.Size() || len(a) != len(b) {
		t.Fatal("nondeterministic plan")
	}
	for i := range a {
		if a[i].Worker.ID != b[i].Worker.ID || a[i].Seq.SetKey() != b[i].Seq.SetKey() {
			t.Fatal("nondeterministic plan contents")
		}
	}
}

func TestSeqValue(t *testing.T) {
	q := core.Sequence{task(1, 0, 0, 0, 1), vtask(-1, 0, 0, 0, 1)}
	if got := seqValue(q, 0.5); got != 1.5 {
		t.Errorf("seqValue = %v", got)
	}
	if got := seqValue(nil, 0.5); got != 0 {
		t.Errorf("empty seqValue = %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MaxNodes <= 0 || o.VirtualWeight <= 0 {
		t.Errorf("defaults missing: %+v", o)
	}
}

// randomScenario builds a reproducible scattered instance large enough to
// have several dependency components.
func randomScenario(seed int64, nWorkers, nTasks int, span float64) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(seed))
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, worker(i+1, r.Float64()*span, r.Float64()*span,
			0.3+r.Float64()*0.5, 0, 1e5))
	}
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		ts = append(ts, task(i+1, r.Float64()*span, r.Float64()*span, 0, 1e5))
	}
	return ws, ts
}

// TestPlanSequencesOutliveTheSearch pins who owns a plan's sequences: a
// Separation holds Q_w as positions only, so the task slices a plan hands out
// are made when it is committed — capacity-capped, so an append to one cannot
// run into the next, and owned by the plan, so the same Search planning other
// instants leaves them as they were. Greedy and Match cut their plans'
// sequences the same way, from picks gathered in scratch the next Plan
// reuses.
func TestPlanSequencesOutliveTheSearch(t *testing.T) {
	for _, p := range []Planner{&Search{Opts: opts()}, &Greedy{Opts: opts()}, &Match{Opts: opts()}} {
		ws, ts := randomScenario(21, 60, 300, 5)
		plan := checked{p}.Plan(ws, ts, 0)
		if len(plan) == 0 {
			t.Fatalf("%s: empty plan", p.Name())
		}
		var ids [][]int
		for _, a := range plan {
			if cap(a.Seq) != len(a.Seq) {
				t.Fatalf("%s: worker %d: a sequence of %d tasks has capacity %d", p.Name(), a.Worker.ID, len(a.Seq), cap(a.Seq))
			}
			ids = append(ids, a.Seq.IDs())
		}
		for call := 0; call < 3; call++ {
			ws2, ts2 := randomScenario(22+int64(call), 60, 300, 5)
			checked{p}.Plan(ws2, ts2, float64(call))
		}
		for i, a := range plan {
			if got := a.Seq.IDs(); !slices.Equal(got, ids[i]) {
				t.Fatalf("%s: assignment %d read %v when planned, %v after it planned other instants", p.Name(), i, ids[i], got)
			}
		}
	}
}

// TestScanPlanAllocs holds a warm Greedy or Match Plan to two allocations:
// the plan and the one array its sequences are cut from.
func TestScanPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ws, ts := randomScenario(21, 60, 300, 5)
	for _, p := range []Planner{&Greedy{Opts: opts()}, &Match{Opts: opts()}} {
		if len(p.Plan(ws, ts, 0)) < 2 {
			t.Fatalf("%s: want a plan of several assignments", p.Name())
		}
		if got := testing.AllocsPerRun(10, func() { p.Plan(ws, ts, 0) }); got != 2 {
			t.Errorf("%s: a warm Plan allocates %v objects, want 2", p.Name(), got)
		}
	}
}

// TestCrowdPlanAllocs holds a warm serial Search.Plan on the event-spike
// crowds (BenchmarkCrowdPlan's instants and budget) to at most 10 allocations
// a call at 1.5x and 38 at 5x: the plan and its task array (Search.commit) and
// what building the RTC trees still allocates (wds.Separator.Tree), nothing
// for the search. The 5x crowd is one tree of 113 tasks laid out on two words,
// so the layout's arenas are held to no steady-state allocation at any width.
func TestCrowdPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a, _ := scenario.Get("event-spike")
	for _, c := range []struct {
		scale float64
		most  float64
	}{{1.5, 10}, {5, 38}} {
		crowd := atlasInstantsOf(a, c.scale)[0]
		s := &Search{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000}}
		run := func() { s.Plan(crowd.workers, crowd.tasks, crowd.now) }
		run()
		if got := testing.AllocsPerRun(10, run); got > c.most {
			t.Errorf("%vx: %v allocations a call, want at most %v", c.scale, got, c.most)
		}
	}
}

func samePlans(t *testing.T, a, b core.Plan) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("plan lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Worker.ID != b[i].Worker.ID {
			t.Fatalf("assignment %d: worker %d vs %d", i, a[i].Worker.ID, b[i].Worker.ID)
		}
		ia, ib := a[i].Seq.IDs(), b[i].Seq.IDs()
		if len(ia) != len(ib) {
			t.Fatalf("assignment %d: sequence lengths differ", i)
		}
		for j := range ia {
			if ia[j] != ib[j] {
				t.Fatalf("assignment %d task %d: %d vs %d", i, j, ia[j], ib[j])
			}
		}
	}
}

// withIdle returns the instant's workers with an idle worker — one that reaches
// no task — before every third of them, and how many it added: a copy of that
// worker under a new id, either off shift or on shift and moved out of reach of
// every task, alternately.
func withIdle(in instant) ([]*core.Worker, int) {
	id := 0
	for _, w := range in.workers {
		id = max(id, w.ID)
	}
	var workers []*core.Worker
	idle := 0
	for i, w := range in.workers {
		if i%3 == 0 {
			c := *w
			id++
			c.ID = id
			if idle%2 == 0 {
				c.On = in.now + 1
			} else {
				c.Loc.X += 1e4
			}
			workers = append(workers, &c)
			idle++
		}
		workers = append(workers, w)
	}
	return workers, idle
}

// sideBySide runs fn(0) … fn(n-1) as the dispatcher steps its shards'
// planners: one after the other on the caller's goroutine at setting 1; at
// setting 0 on up to GOMAXPROCS goroutines that take the jobs in index order
// as they come free, while the caller waits. fn must write only slot i.
func sideBySide(n, setting int, fn func(i int)) {
	workers := 1
	if setting == 0 {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// TestIdleWorkersInvisibleAcrossParallelism: a worker that reaches no task has
// nothing to plan and shares nothing, so it costs nothing either. Planning an
// instant with idle workers among its own returns the plan, the RL samples and
// every counter of planning it without them — the exact search with the
// transposition table on and off, the flat ablation, the value-guided search, sample
// collection and SSP's shared scenario pass. The two planners plan side by side
// under sideBySide at the setting par names, as the dispatcher steps its
// shards' planners: one after the other on the test's goroutine at 1, each on a
// goroutine of its own at 0 where the CPUs allow, sharing the value model.
func TestIdleWorkersInvisibleAcrossParallelism(t *testing.T) {
	a, _ := scenario.Get("rush-hour")
	model := tvf.NewModel(16, 7)
	for _, in := range atlasInstantsOf(a, 1) {
		crowd := strings.HasSuffix(in.name, "/crowd")
		padded, idle := withIdle(in)
		sspIn := tagEveryThird(in, 5, 3)
		for _, p := range []int{1, 0} {
			o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000}
			flat := o
			flat.Flat = true
			for _, c := range []struct {
				name string
				s    func() *Search
			}{
				{"exact", func() *Search { return &Search{Opts: o} }},
				{"flat", func() *Search { return &Search{Opts: flat} }},
				{"tvf", func() *Search { return &Search{Opts: o, Model: model} }},
				{"collect", func() *Search { return &Search{Opts: o, Collect: true} }},
			} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", in.name, c.name, p), func(t *testing.T) {
					want, got := c.s(), c.s()
					var wantPlan, gotPlan core.Plan
					sideBySide(2, p, func(i int) {
						if i == 0 {
							wantPlan = checked{want}.Plan(in.workers, in.tasks, in.now)
						} else {
							gotPlan = checked{got}.Plan(padded, in.tasks, in.now)
						}
					})
					samePlans(t, wantPlan, gotPlan)
					counts := func(s *Search) [6]int {
						return [6]int{s.NodesLastPlan, s.ExpandedLastPlan, s.GreedyCompletionsLastPlan,
							s.BudgetBoundTreesLastPlan, s.trees, len(s.results)}
					}
					if counts(got) != counts(want) {
						t.Fatalf("%d idle workers: nodes/expanded/greedy/bound/trees/distinct %v, without them %v", idle, counts(got), counts(want))
					}
					if !slices.Equal(got.Samples, want.Samples) || want.Collect && len(want.Samples) == 0 {
						t.Fatalf("%d samples, without the idle workers %d", len(got.Samples), len(want.Samples))
					}
					if len(wantPlan) == 0 {
						t.Fatal("nothing was assigned")
					}
					// The transposition table is on for exactly the trees useTable
					// names — one word, three workers or more, exact search without
					// Collect — each switching it on once (transTable.gen), and a
					// tree it is off for expands every node it counts. The crowd's
					// exact search holds trees of both kinds.
					on, off := 0, 0
					for i := range got.results {
						r := &got.results[i]
						if c.name != "tvf" && c.name != "collect" && r.root.Size() >= tableMinWorkers && got.taskOff[i+1]-got.taskOff[i] <= 64 {
							on++
						} else if off++; r.expanded != r.nodes {
							t.Fatalf("tree %d: %d of %d nodes expanded with the table off", i, r.expanded, r.nodes)
						}
					}
					if switched := int(got.run.table.gen); switched != on {
						t.Fatalf("the table was on for %d trees, useTable names %d", switched, on)
					}
					if c.name == "exact" && crowd && (on == 0 || off == 0) {
						t.Fatalf("%d trees with the table on, %d with it off", on, off)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/ssp/par=%d", in.name, p), func(t *testing.T) {
				want, got := &SSP{Opts: o, Samples: 5}, &SSP{Opts: o, Samples: 5}
				var wantPlan, gotPlan core.Plan
				sideBySide(2, p, func(i int) {
					if i == 0 {
						wantPlan = checked{want}.Plan(sspIn.workers, sspIn.tasks, in.now)
					} else {
						gotPlan = checked{got}.Plan(padded, sspIn.tasks, in.now)
					}
				})
				samePlans(t, wantPlan, gotPlan)
				counts := func(p *SSP) [6]int {
					s := &p.search
					return [6]int{s.NodesLastPlan, s.ExpandedLastPlan, s.GreedyCompletionsLastPlan,
						s.BudgetBoundTreesLastPlan, s.trees, len(s.results)}
				}
				if counts(got) != counts(want) {
					t.Fatalf("%d idle workers: nodes/expanded/greedy/bound/trees/distinct %v, without them %v", idle, counts(got), counts(want))
				}
				if s := &want.search; len(s.results) >= s.trees {
					t.Fatalf("%d distinct trees of %d: the scenarios share nothing", len(s.results), s.trees)
				}
			})
		}
	}
}

// TestBoundedCompletionsAcrossParallelism pins the work the completion bound
// saves (completionBound) on the event-spike flash crowd with the benchmark's
// 4000-node budget (BenchmarkCrowdPlan): at 1.5x, where every tree's universe
// fits one word, and at 5x, one tree of more than 64 tasks. The two crowds
// are planned side by side under sideBySide, as two shards' planners are: one
// after the other on the test's goroutine at 1, each on a goroutine of its
// own at 0 where the CPUs allow. At both the plans and all five counters are
// the same, and most of the greedy completions past the budget are counted
// without being run.
func TestBoundedCompletionsAcrossParallelism(t *testing.T) {
	a, _ := scenario.Get("event-spike")
	cases := []struct {
		scale   float64
		minSkip float64 // the least share of the greedy completions skipped
	}{{1.5, 0.75}, {5, 0.6}}
	crowds := make([]instant, len(cases))
	for i, c := range cases {
		crowds[i] = atlasInstantsOf(a, c.scale)[0]
	}
	var want [2]core.Plan
	var wantCounts [2][5]int
	for _, p := range []int{1, 0} {
		var searches [2]*Search
		var plans [2]core.Plan
		sideBySide(len(crowds), p, func(i int) {
			searches[i] = &Search{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000}}
			plans[i] = checked{searches[i]}.Plan(crowds[i].workers, crowds[i].tasks, crowds[i].now)
		})
		for i, c := range cases {
			s := searches[i]
			counts := [5]int{s.NodesLastPlan, s.ExpandedLastPlan, s.GreedyCompletionsLastPlan,
				s.BudgetBoundTreesLastPlan, s.SkippedCompletionsLastPlan}
			if p == 1 {
				want[i], wantCounts[i] = plans[i], counts
				widest := 0
				for j := range s.results {
					widest = max(widest, int(s.taskOff[j+1]-s.taskOff[j]))
				}
				if wide := widest > 64; wide != (c.scale == 5) {
					t.Fatalf("%vx: widest universe %d tasks", c.scale, widest)
				}
				if skipped, greedy := s.SkippedCompletionsLastPlan, s.GreedyCompletionsLastPlan; float64(skipped) < c.minSkip*float64(greedy) {
					t.Fatalf("%vx: %d of %d greedy completions skipped, want at least %.0f%%", c.scale, skipped, greedy, 100*c.minSkip)
				}
				continue
			}
			samePlans(t, want[i], plans[i])
			if counts != wantCounts[i] {
				t.Fatalf("%vx side by side: nodes/expanded/greedy/bound/skipped %v, one after the other %v", c.scale, counts, wantCounts[i])
			}
		}
	}
}

// TestPlanWithoutSequences covers the forest with no work in it — no tasks,
// nobody on shift, nobody at all: the plan is empty.
func TestPlanWithoutSequences(t *testing.T) {
	ws, ts := randomScenario(3, 20, 40, 6)
	s := &Search{Opts: opts()}
	if plan := (checked{s}).Plan(ws, nil, 0); len(plan) != 0 {
		t.Fatalf("no tasks: %d assignments", len(plan))
	}
	if plan := (checked{s}).Plan(nil, ts, 0); len(plan) != 0 {
		t.Fatalf("no workers: %d assignments", len(plan))
	}
	if plan := (checked{s}).Plan(ws, ts, 2e5); len(plan) != 0 { // past every worker's Off
		t.Fatalf("nobody on shift: %d assignments", len(plan))
	}
}
