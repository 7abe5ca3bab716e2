package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/wds"
)

// optimum is the best objective value any plan of the pool at now can reach,
// computed from the objective and Definitions 4–5 alone. Every worker's valid
// sequences of up to MaxSeqLen tasks are enumerated task by task over its
// candidates, kept as the task sets they cover; an exact set packing then
// picks at most one set per worker, by a depth-first walk over the workers
// with a memo on the worker and the availability of the tasks it and the
// workers after it can take. A task is worth 1, a virtual one VirtualWeight.
// The candidates are the whole pool, or with capped set the reachable set of
// wds.ReachableTasks under o.WDS (its MaxReachable nearest). At most 64 tasks.
func optimum(workers []*core.Worker, tasks []*core.Task, now float64, o Options, capped bool) float64 {
	o = o.WithDefaults()
	bit := make(map[*core.Task]uint64, len(tasks))
	worth := make([]float64, len(tasks))
	for i, s := range tasks {
		bit[s] = 1 << uint(i)
		worth[i] = 1
		if s.Virtual {
			worth[i] = o.VirtualWeight
		}
	}
	value := func(set uint64) float64 {
		v := 0.0
		for i := range tasks {
			if set>>uint(i)&1 != 0 {
				v += worth[i]
			}
		}
		return v
	}
	sets := make([][]uint64, len(workers))
	reach := make([]uint64, len(workers)+1) // reach[i]: the tasks workers i.. can take
	for i := len(workers) - 1; i >= 0; i-- {
		w, cands := workers[i], tasks
		if capped {
			cands = wds.ReachableTasks(w, tasks, now, o.WDS)
		}
		seen := map[uint64]bool{}
		var seq core.Sequence
		var grow func(set uint64)
		grow = func(set uint64) {
			if set != 0 && !seen[set] {
				seen[set] = true
				sets[i] = append(sets[i], set)
				reach[i] |= set
			}
			if len(seq) == o.WDS.MaxSeqLen {
				return
			}
			for _, s := range cands {
				if set&bit[s] == 0 && core.ValidSequence(w, now, append(seq, s), o.WDS.Travel) {
					seq = append(seq, s)
					grow(set | bit[s])
					seq = seq[:len(seq)-1]
				}
			}
		}
		grow(0)
		reach[i] |= reach[i+1]
	}
	memo := map[[2]uint64]float64{}
	var best func(i int, free uint64) float64
	best = func(i int, free uint64) float64 {
		free &= reach[i]
		if free == 0 {
			return 0
		}
		key := [2]uint64{uint64(i), free}
		if v, ok := memo[key]; ok {
			return v
		}
		v := best(i+1, free)
		for _, set := range sets[i] {
			if set&^free == 0 {
				v = max(v, value(set)+best(i+1, free&^set))
			}
		}
		memo[key] = v
		return v
	}
	return best(0, ^uint64(0))
}

// planWorth is a plan's objective value, each sequence summed as the search
// sums it.
func planWorth(p core.Plan, virtualWeight float64) float64 {
	v := 0.0
	for _, a := range p {
		v += seqValue(a.Seq, virtualWeight)
	}
	return v
}

// flowBound bounds the real tasks any plan of the pool at now assigns: a
// maximum b-matching of the real tasks to the workers, each worker taking at
// most MaxSeqLen of them, with an edge wherever the one-task sequence is valid.
// Every plan is such a matching: its sequences hold at most MaxSeqLen tasks,
// and a task on a valid sequence is valid alone, reached no later (the
// triangle inequality) from the same location and within the same reach. The
// matching grows by one augmenting path a task, each worker entered at most
// once a search.
func flowBound(workers []*core.Worker, tasks []*core.Task, now float64, o Options) int {
	o = o.WithDefaults()
	var takers [][]int // per real task, the workers whose one-task sequence is valid
	for _, s := range tasks {
		if s.Virtual {
			continue
		}
		var ws []int
		for i, w := range workers {
			if core.ValidSequence(w, now, core.Sequence{s}, o.WDS.Travel) {
				ws = append(ws, i)
			}
		}
		takers = append(takers, ws)
	}
	held := make([][]int, len(workers)) // the tasks matched to each worker
	var entered []bool
	var augment func(t int) bool
	augment = func(t int) bool {
		for _, i := range takers[t] {
			if entered[i] {
				continue
			}
			entered[i] = true
			if len(held[i]) < o.WDS.MaxSeqLen {
				held[i] = append(held[i], t)
				return true
			}
			for k, u := range held[i] {
				if augment(u) {
					held[i][k] = t
					return true
				}
			}
		}
		return false
	}
	n := 0
	for t := range takers {
		entered = make([]bool, len(workers))
		if augment(t) {
			n++
		}
	}
	return n
}

// realTasks is the real tasks a plan assigns.
func realTasks(p core.Plan) int {
	n := 0
	for _, a := range p {
		for _, s := range a.Seq {
			if !s.Virtual {
				n++
			}
		}
	}
	return n
}

// components returns the connected components of an instant's workers under
// the share-a-task relation, every reachable set uncapped (a worker reaches a
// task when the one-task sequence is valid), found by union-find: each as a
// pool of its own, the workers and the tasks they reach in instant order.
// Only components of at most maxWorkers workers and maxTasks tasks are kept.
func components(in instant, tm geo.TravelModel, maxWorkers, maxTasks int) []instant {
	parent := make([]int, len(in.workers))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	taker := make([]int, len(in.tasks)) // a worker reaching task j, -1: none
	for j, s := range in.tasks {
		taker[j] = -1
		for i, w := range in.workers {
			if core.ValidSequence(w, in.now, core.Sequence{s}, tm) {
				if taker[j] < 0 {
					taker[j] = i
				}
				parent[find(i)] = find(taker[j])
			}
		}
	}
	byRoot := map[int]*instant{}
	var roots []int
	for i, w := range in.workers {
		r := find(i)
		if byRoot[r] == nil {
			byRoot[r] = &instant{name: fmt.Sprintf("%s/w%d", in.name, w.ID), now: in.now}
			roots = append(roots, r)
		}
		byRoot[r].workers = append(byRoot[r].workers, w)
	}
	for j, s := range in.tasks {
		if taker[j] >= 0 {
			c := byRoot[find(taker[j])]
			c.tasks = append(c.tasks, s)
		}
	}
	var out []instant
	for _, r := range roots {
		if c := byRoot[r]; len(c.tasks) > 0 && len(c.workers) <= maxWorkers && len(c.tasks) <= maxTasks {
			out = append(out, *c)
		}
	}
	return out
}

// atlasComponents returns the components of at most 8 workers and 20 tasks
// of the crowd and median instants of every atlas archetype, at 1x and 5x.
func atlasComponents() []instant {
	var out []instant
	for _, a := range scenario.Registry() {
		for _, scale := range []float64{1, 5} {
			for _, in := range atlasInstantsOf(a, scale) {
				in.name = fmt.Sprintf("%s/%gx", in.name, scale)
				out = append(out, components(in, opts().WithDefaults().WDS.Travel, 8, 20)...)
			}
		}
	}
	return out
}

// exact is o with every cap of the search past what a pool of 64 tasks can
// reach: every task in reach, no node budget.
func exact(o Options) Options {
	o.WDS.MaxReachable, o.MaxNodes = 64, math.MaxInt
	return o
}

// TestSearchIsOptimal holds the search to Section IV-A's claim that it is
// exact: with no cap binding, Search plans the optimum, on random pools of up
// to 8 workers and 20 tasks — real and virtual, sequences of 1 to 3 tasks,
// windows that bind — and on every atlas component of that size, 1x and 5x.
func TestSearchIsOptimal(t *testing.T) {
	compare := func(t *testing.T, in instant, o Options) {
		t.Helper()
		want := optimum(in.workers, in.tasks, in.now, o, false)
		s := &Search{Opts: exact(o)}
		got := checked{s}.Plan(in.workers, in.tasks, in.now)
		if v := planWorth(got, s.Opts.WithDefaults().VirtualWeight); math.Abs(v-want) > 1e-9 {
			t.Fatalf("%s: Search plans %v of %d tasks, the optimum is %v", in.name, v, len(in.tasks), want)
		}
		if s.GreedyCompletionsLastPlan != 0 {
			t.Fatalf("%s: the node budget bound", in.name)
		}
	}

	r := rand.New(rand.NewSource(46))
	for seed := 0; seed < 300; seed++ {
		in := instant{name: fmt.Sprintf("random/%d", seed), now: 100}
		nw, nt := 1+r.Intn(8), 1+r.Intn(20)
		for i := 0; i < nw; i++ {
			in.workers = append(in.workers, worker(i+1, r.Float64(), r.Float64(), 0.15+0.45*r.Float64(), 0, 100+20+400*r.Float64()))
		}
		for i := 0; i < nt; i++ {
			s := task(i+1, r.Float64(), r.Float64(), 100*r.Float64(), 100+10+150*r.Float64())
			if r.Intn(4) == 0 {
				s.Virtual, s.Pub = true, 100+60*r.Float64()
			}
			in.tasks = append(in.tasks, s)
		}
		o := opts()
		o.WDS.MaxSeqLen, o.VirtualWeight = 1+r.Intn(3), []float64{0.35, 0.6, 1.5}[r.Intn(3)]
		compare(t, in, o)
	}

	solved := 0
	for _, c := range atlasComponents() {
		compare(t, c, opts())
		solved++
	}
	if solved < 100 {
		t.Fatalf("%d atlas components solved", solved)
	}
}

// TestPlannersWithinFlowBound holds Greedy, Match and the budgeted Search at
// or below flowBound, counting real tasks, on the crowd and median instants
// of every atlas archetype at 1x and 5x and on random pools, and the bound at
// or above the exact optimum on every small atlas component. It logs the
// totals: how far the planners are from the bound, and how loose the bound is
// where the optimum is known.
func TestPlannersWithinFlowBound(t *testing.T) {
	budgeted := opts()
	budgeted.MaxNodes = 4000
	names := []string{"Greedy", "Match", "Search{MaxNodes: 4000}"}
	planners := []Planner{&Greedy{Opts: opts()}, &Match{Opts: opts()}, &Search{Opts: budgeted}}
	var pools []instant
	for _, a := range scenario.Registry() {
		for _, scale := range []float64{1, 5} {
			for _, in := range atlasInstantsOf(a, scale) {
				in.name = fmt.Sprintf("%s/%gx", in.name, scale)
				pools = append(pools, in)
			}
		}
	}
	atlas := len(pools)
	r := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 30; seed++ {
		ws, ts := randomScenario(seed, 2+r.Intn(40), 5+r.Intn(120), 2+6*r.Float64())
		pools = append(pools, instant{name: fmt.Sprintf("random/%d", seed), workers: ws, tasks: ts})
	}
	planned, bounds := make([]int, len(planners)), 0
	for k, in := range pools {
		bound := flowBound(in.workers, in.tasks, in.now, opts())
		for i, p := range planners {
			got := realTasks(checked{p}.Plan(in.workers, in.tasks, in.now))
			if got > bound {
				t.Errorf("%s: %s assigns %d real tasks, the bound is %d", in.name, names[i], got, bound)
			}
			if k < atlas {
				planned[i] += got
			}
		}
		if k < atlas {
			bounds += bound
		}
	}
	for i, name := range names {
		t.Logf("%d atlas instants: %s %d real tasks, bound %d (%.1f%% below)",
			atlas, name, planned[i], bounds, 100*float64(bounds-planned[i])/float64(bounds))
	}

	comps := atlasComponents()
	opt, bounded := 0.0, 0
	for _, c := range comps {
		want := optimum(c.workers, c.tasks, c.now, opts(), false)
		bound := flowBound(c.workers, c.tasks, c.now, opts())
		if float64(bound) < want-1e-9 {
			t.Errorf("%s: bound %d below the optimum %v", c.name, bound, want)
		}
		opt, bounded = opt+want, bounded+bound
	}
	t.Logf("%d atlas components: optimum %v, bound %d", len(comps), opt, bounded)
}
