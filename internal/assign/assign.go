// Package assign implements the task assignment component of DATA-WA
// (Section IV-B/IV-C): the exact depth-first search over the RTC tree
// (Algorithm 1, DFSearch) with reinforcement-learning sample collection, the
// value-function-guided search without backtracking (Algorithm 2,
// DFSearch_TVF), the Task Planning Assignment driver (Algorithm 4, TPA), and
// the Greedy baseline of Section V-B.2.
package assign

import (
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/par"
	"repro/internal/spatial"
	"repro/internal/tvf"
	"repro/internal/wds"
)

// Options bounds the planning effort per instant.
type Options struct {
	// WDS configures reachable-set and sequence generation.
	WDS wds.Options
	// MaxNodes caps the number of exact-search nodes per RTC tree; past the
	// budget a tree's search completes greedily (default 20000). The budget
	// is per tree (not shared across the forest) so that every tree's
	// search is independent of its siblings — the property the parallel
	// planner relies on for byte-identical serial/parallel results — so
	// NodesLastPlan can reach MaxNodes times the forest size, plus the
	// greedy completions. The budget counts the nodes of the exhaustive
	// walk, whether a call expands them or takes them off the transposition
	// table (ExpandedLastPlan): what a budget buys does not depend on how
	// the planner gets there.
	MaxNodes int
	// VirtualWeight is the objective value of assigning a virtual
	// (predicted) task relative to a real task's 1.0 (default 0.35,
	// roughly the empirical precision of materialized predictions): the
	// planner is paid for positioning workers at future demand, but never
	// at the price of a real task.
	VirtualWeight float64
	// Flat disables the RTC tree (ablation): each connected component is
	// searched as one flat worker list, losing the sibling-independence
	// pruning of Section IV-A.4.
	Flat bool
	// Parallelism bounds the goroutines used to search the trees of the
	// RTC forest concurrently and, in place of WDS.Parallelism, the
	// per-worker loops of wds.Separator: 0 uses up to one goroutine per CPU
	// when the instant is large enough to pay for them (searchGrain
	// sequences a goroutine), 1 (or any negative value) runs serially.
	// Trees are independent by construction — workers in different trees
	// share no reachable task — so every setting produces the identical
	// plan, node count, and sample stream.
	Parallelism int
}

// WithDefaults returns o with zero fields defaulted.
func (o Options) WithDefaults() Options {
	o.WDS = o.WDS.WithDefaults()
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.VirtualWeight <= 0 {
		o.VirtualWeight = 0.35
	}
	return o
}

// maxSamples caps RL sample collection per planning call.
const maxSamples = 20000

// Planner computes a spatial task assignment for the current workers and
// unassigned tasks at time now. Implementations must be deterministic.
// Travel is the travel model the plans are built on, c(w.l, s.l) of the
// reachable set (Section IV-A.1): a machine executing the plans moves its
// workers by it, so the two never disagree.
type Planner interface {
	Name() string
	Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan
	Travel() geo.TravelModel
}

// ---------------------------------------------------------------------------
// Greedy baseline
// ---------------------------------------------------------------------------

// Greedy is the baseline of Section V-B.2(i): it scans workers in id order
// and hands each the maximal valid task sequence from the still-unassigned
// tasks, until tasks or workers run out. No dependency reasoning, no
// look-ahead.
//
// A Greedy carries reusable per-instant scratch (planners are per-shard and
// single-goroutine), so steady-state Plan calls allocate only the plan: the
// plan itself and one array its sequences are cut from.
type Greedy struct {
	Opts Options

	scan workerScan
}

// Name implements Planner.
func (g *Greedy) Name() string { return "Greedy" }

// Travel implements Planner.
func (g *Greedy) Travel() geo.TravelModel { return g.Opts.WithDefaults().WDS.Travel }

// Plan implements Planner.
func (g *Greedy) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	return g.scan.plan(workers, tasks, now, g.Opts.WithDefaults().WDS, false)
}

// workerScan is the sequential planners' per-instant state: the workers in id
// order, a grid index over the pool, and one availability flag per pool
// position — cleared when a worker takes the task, and from the start for a
// repeated id or a task the planner does not plan with. picked and runs
// gather an instant's picks before its plan is made: every pick's pool
// position back to back, and per assignment its worker and where its picks
// end.
type workerScan struct {
	ws     []*core.Worker
	ix     spatial.Index
	avail  []bool
	ids    idSet
	sc     wds.Scratch
	picked []int32
	runs   []pickRun
}

// pickRun is one assignment of a plan being gathered: the worker and the end
// of its picks in workerScan.picked.
type pickRun struct {
	w   *core.Worker
	end int
}

// byWorkerID orders workers by id.
func byWorkerID(a, b *core.Worker) int { return a.ID - b.ID }

// idSet is one plan's set of task ids: open addressing over a power-of-two
// table at most half full, each slot stamped with the plan that filled it, so
// a new plan empties the set by moving to the next stamp.
type idSet struct {
	slots []idSlot
	stamp uint32
}

type idSlot struct {
	id    int
	stamp uint32
}

// reset empties the set for at most n ids.
func (s *idSet) reset(n int) {
	if size := 1 << bits.Len(uint(2*n)); len(s.slots) < size {
		s.slots, s.stamp = make([]idSlot, size), 0
	}
	if s.stamp++; s.stamp == 0 { // the stamps wrapped: no slot may look filled
		clear(s.slots)
		s.stamp = 1
	}
}

// add adds id and reports whether it was new.
//
//datawa:hotpath
func (s *idSet) add(id int) bool {
	mask := uint64(len(s.slots) - 1)
	for h := uint64(id) * 0x9e3779b97f4a7c15 >> 32 & mask; ; h = (h + 1) & mask {
		switch slot := &s.slots[h]; {
		case slot.stamp != s.stamp:
			*slot = idSlot{id, s.stamp}
			return true
		case slot.id == id:
			return false
		}
	}
}

// plan hands each worker, in id order, the head of its Q_w over the tasks
// still available — or, for the matcher, the nearest available real task.
// The picks are gathered in scratch first, so the plan is made once, sized
// exactly, its sequences cut from one array and capacity-capped, as
// Search.commit makes a search plan: nothing appended to one reaches the
// next.
//
//datawa:hotpath
func (s *workerScan) plan(workers []*core.Worker, tasks []*core.Task, now float64, o wds.Options, match bool) core.Plan {
	if len(tasks) == 0 {
		return nil
	}
	s.ws = append(s.ws[:0], workers...)
	slices.SortFunc(s.ws, byWorkerID)
	s.ix.Reset(tasks, wds.IndexCell(workers, tasks, now, o))
	s.avail = slices.Grow(s.avail[:0], len(tasks))[:len(tasks)]
	s.ids.reset(len(tasks))
	for i, t := range tasks {
		s.avail[i] = !(match && t.Virtual) && s.ids.add(t.ID) // a repeated id is planned once
	}
	s.picked, s.runs = s.picked[:0], s.runs[:0]
	for _, w := range s.ws {
		pick := s.sc.Reachable(w, &s.ix, s.avail, now, o)
		if !match {
			pick = s.sc.BestSequence(w, tasks, pick, now, o)
		}
		if len(pick) == 0 {
			continue
		}
		for _, c := range pick {
			s.picked = append(s.picked, c.Pos)
			s.avail[c.Pos] = false
		}
		s.runs = append(s.runs, pickRun{w: w, end: len(s.picked)})
	}
	if len(s.runs) == 0 {
		return nil
	}
	//datawa:alloc the plan, which the caller owns
	plan := make(core.Plan, len(s.runs))
	//datawa:alloc the picked sequences' tasks, which the plan owns: one array a plan
	backing := make(core.Sequence, len(s.picked))
	for j, pos := range s.picked {
		backing[j] = tasks[pos]
	}
	from := 0
	for i, r := range s.runs {
		plan[i] = core.Assignment{Worker: r.w, Seq: backing[from:r.end:r.end]}
		from = r.end
	}
	return plan
}

// ---------------------------------------------------------------------------
// Search planner: TPA + DFSearch / DFSearch_TVF
// ---------------------------------------------------------------------------

// Search is the planner used by FTA, DTA, DTA+TP and DATA-WA. With a nil
// Model it runs the exact DFSearch (Algorithm 1); with a trained TVF model
// it runs DFSearch_TVF (Algorithm 2), which never backtracks. When Collect
// is true, exact search emits (state, action, opt) samples into Samples for
// TVF training.
type Search struct {
	Opts    Options
	Model   *tvf.Model
	Collect bool
	// Samples accumulates RL training data across Plan calls when Collect
	// is set.
	Samples []tvf.Sample
	// NodesLastPlan reports the search calls made by the most recent Plan:
	// the nodes the exact search (or DFSearch_TVF) expanded plus, once a
	// tree's MaxNodes is spent, one per pending branch handed straight to
	// greedy completion. GreedyCompletionsLastPlan is that second term and
	// BudgetBoundTreesLastPlan the number of trees it was non-zero for —
	// "how often does the search budget bind". SkippedCompletionsLastPlan is
	// how many of those completions were counted but not run: a bound on what
	// the completion could add proved it could not lift its branch past the
	// best one of the same call (completionBound).
	NodesLastPlan              int
	GreedyCompletionsLastPlan  int
	BudgetBoundTreesLastPlan   int
	SkippedCompletionsLastPlan int
	// ExpandedLastPlan is how many of NodesLastPlan's calls the planner really
	// made; the rest were counted off the transposition table (see
	// transposition.go), which answers a subproblem the same tree search has
	// already solved with the stored value, plan and node count. The two are
	// equal whenever the table is not in use.
	ExpandedLastPlan int
	// ReachChecksLastPlan is the distances the most recent Plan computed
	// while gathering the workers' reachable sets (wds.Separator.ReachChecks):
	// the reach stage's work, the same at every Parallelism.
	ReachChecksLastPlan int

	// Per-instant scratch (a Search serves one shard from one goroutine, but
	// fans tree searches out internally — runs is indexed by the worker
	// goroutine, everything else stays on the driving goroutine).
	sep  wds.Separator
	runs []searchRun
	// job is searchJob bound to jobOf, made once: a method value handed to par
	// escapes, so each one made is an allocation. A copied Search, whose jobOf
	// is not itself, binds its own.
	job   func(g, i int)
	jobOf *Search
	// One entry per distinct dependency component of the call, in the order
	// they were met: every tree of a one-scenario call, and of a call planning
	// several scenarios (plan) each tree once, however many of them hold it.
	// results[fresh:] are the current scenario's new trees, head chains the
	// entries by smallest member, trees counts the trees of all scenarios'
	// forests, and forests names every scenario's by entry: scenario si's is
	// forests[forestOff[si]:forestOff[si+1]], its Separation seps[si] (the
	// Separator's until its next call). A scenario's plan is those forests'
	// choices: commit makes it on demand.
	results   []treeResult
	fresh     int
	head      []int32
	trees     int
	forests   []int32
	forestOff []int32
	seps      []wds.Separation
	// The tasks of the current scenario's new trees as per-tree universes, by
	// pool position: tree i of them owns taskFlat[taskOff[i]:taskOff[i+1]], in
	// pool order; treeOf and local map a pool position to its tree (-1: none
	// of them reaches it) and to its place in that tree's universe.
	treeOf   []int32
	local    []int32
	taskOff  []int32
	taskFlat []int32
	// Worker i's reachable set as tree-local positions, parallel to
	// Sets[i].Index from reachLocal[reachOff[i]] on; and which of them are
	// virtual tasks, as bits over Index positions. Written for the workers of
	// the current scenario's new trees only, the ones their searches read.
	reachOff   []int32
	reachLocal []int32
	virtual    []uint64
}

// searchGrain is the least number of candidate sequences in a forest worth a
// goroutine of its own. Searching small trees costs 0.1–0.3 µs a sequence with
// the transposition table (294 trees holding 8,340: 0.95 ms, 0.61 ms split in
// two) and more without, so a grain is upwards of 0.1 ms, a few of a
// goroutine's ≈ 30–40 µs wake-ups. paper-yueche's median instant — 6
// sequences, in the trees of the 3 of its 211 workers on shift that reach a
// task — is two orders of magnitude below it, and its largest holds 1,509
// (docs/BENCHMARKS.md, "Fan-out grains").
const searchGrain = 1024

// treeResult is one distinct dependency component of a call and the outcome of
// its search: the plan is run g's out[from:to]. The scenario it was first met
// in, its size and the next entry with the same smallest member are what a
// later scenario recognises it by (Search.find).
type treeResult struct {
	root                 *wds.TreeNode
	scenario, size, next int32
	g, from, to          int
	nodes                int
	expanded             int
	greedy               int
	skipped              int
	samples              []tvf.Sample
}

// Name implements Planner.
func (s *Search) Name() string {
	if s.Model != nil {
		return "DFSearch_TVF"
	}
	return "DFSearch"
}

// Travel implements Planner.
func (s *Search) Travel() geo.TravelModel { return s.Opts.WithDefaults().WDS.Travel }

// SetParallelism overrides Opts.Parallelism: how the dispatcher hands each
// shard's planners their share of the goroutine budget for the epoch's shard
// fan-out.
func (s *Search) SetParallelism(p int) { s.Opts.Parallelism = p }

// Plan implements Planner. It is the Task Planning Assignment driver of
// Algorithm 4: per-worker reachable sets and maximal valid sequences, the
// worker dependency graph, clique partition and RTC tree (the stages of
// wds.Separator), then one search per tree of the forest.
//
// The trees are searched concurrently on a bounded pool (Options.
// Parallelism) when the forest holds enough sequences to pay for one
// (searchGrain). Each tree owns a disjoint slice of the task pool — two
// workers sharing a reachable task are by definition in the same dependency
// component — so per-tree searches never contend, and the merge in forest
// order (components sorted by their smallest worker index) makes the plan,
// NodesLastPlan, and collected samples byte-identical to a serial run.
func (s *Search) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	s.plan(workers, tasks, now, 1)
	return s.commit(0)
}

// plan plans the k sampled scenarios of one pool (wds.Separator.Scenarios: one
// scenario, the whole pool, for k ≤ 1) and leaves their forests' choices in s,
// for commit and value, and the counters summed over them — each scenario's
// plan, and its share of every counter but ExpandedLastPlan, being what Plan
// returns and counts on a copy of the pool holding that scenario's tasks only.
//
// What a component's search returns depends on its members' reachable sets and
// nothing else, so a component met again in a later scenario with the same
// members holding the same sets (find) is the same tree over the same universe:
// it is not built or searched again, and its choices and counts go into that
// scenario's plan and sums as a transposition hit's go into its parent's.
func (s *Search) plan(workers []*core.Worker, tasks []*core.Task, now float64, k int) {
	o := s.Opts.WithDefaults()
	wdsOpts := o.WDS
	wdsOpts.Parallelism = o.Parallelism
	seps := s.sep.Scenarios(workers, tasks, now, wdsOpts, k)
	s.ReachChecksLastPlan = s.sep.ReachChecks()
	s.seps = seps
	s.forests, s.forestOff = s.forests[:0], append(s.forestOff[:0], 0)
	s.results = s.results[:0]
	if len(seps) > 1 {
		s.head = slices.Grow(s.head[:0], len(workers))[:len(workers)]
		for i := range s.head {
			s.head[i] = -1
		}
	}
	for g := range s.runs {
		s.runs[g].out = s.runs[g].out[:0]
	}
	s.trees = 0
	s.NodesLastPlan, s.GreedyCompletionsLastPlan, s.BudgetBoundTreesLastPlan, s.ExpandedLastPlan = 0, 0, 0, 0
	s.SkippedCompletionsLastPlan = 0
	for si := range seps {
		sep := &seps[si]
		flat, offs := s.sep.Components(sep)
		from, sequences := len(s.results), 0
		for i := 0; i+1 < len(offs); i++ {
			comp := flat[offs[i]:offs[i+1]]
			id := -1
			if si > 0 {
				id = s.find(seps, sep, comp)
			}
			if id < 0 {
				id = len(s.results)
				r := treeResult{root: s.sep.Tree(comp), scenario: int32(si), size: int32(len(comp))}
				if o.Flat {
					r.root = flatten(r.root, workers)
				}
				if len(seps) > 1 {
					r.next, s.head[comp[0]] = s.head[comp[0]], int32(id)
				}
				s.results = append(s.results, r)
				for _, wi := range comp {
					sequences += len(sep.Sets[wi].Masks)
				}
			}
			s.forests = append(s.forests, int32(id))
		}
		s.forestOff = append(s.forestOff, int32(len(s.forests)))
		fresh := s.results[from:]
		s.partition(sep, fresh)

		// The trees fan out by the sequences in them, not by their number: a
		// hundred one-worker trees are ten microseconds of search.
		fan := par.Workers(o.Parallelism, sequences, searchGrain)
		for len(s.runs) < fan {
			s.runs = append(s.runs, searchRun{})
		}
		for g := range s.runs[:fan] {
			run := &s.runs[g]
			run.opts, run.sep, run.now = o, sep, now
			// A value-guided search collects nothing.
			run.model, run.collect = s.Model, s.Collect && s.Model == nil
			run.reachOff, run.reachLocal, run.virtual = s.reachOff, s.reachLocal, s.virtual
		}
		if s.jobOf != s {
			s.job, s.jobOf = s.searchJob, s
		}
		s.fresh = from
		par.DoWorker(len(fresh), fan, s.job)
		for i := range fresh {
			s.ExpandedLastPlan += fresh[i].expanded
		}

		forest := s.forest(si)
		for _, id := range forest {
			r := &s.results[id]
			s.NodesLastPlan += r.nodes
			s.GreedyCompletionsLastPlan += r.greedy
			s.SkippedCompletionsLastPlan += r.skipped
			if r.greedy > 0 {
				s.BudgetBoundTreesLastPlan++
			}
		}
		s.trees += len(forest)
	}
	if s.Collect {
		// Each tree collects under its own maxSamples cap; the merged
		// stream is re-capped so one Plan call still emits at most
		// maxSamples, exactly as a serial traversal of the forest would.
		added := 0
		for i := range s.results {
			samples := s.results[i].samples
			s.results[i].samples = nil
			room := maxSamples - added
			if room <= 0 {
				continue
			}
			if len(samples) > room {
				samples = samples[:room]
			}
			added += len(samples)
			s.Samples = append(s.Samples, samples...)
		}
	}
}

// forest returns scenario si's forest of the last call, as entries of results.
func (s *Search) forest(si int) []int32 {
	return s.forests[s.forestOff[si]:s.forestOff[si+1]]
}

// commit returns scenario si's plan of the last call: the choices of its
// forest's searches, in forest order, each committed sequence resolved to its
// tasks. Only here does a sequence of Q_w become a task slice; the plan's are
// cut from one array, sized by them, and capacity-capped, so nothing appended
// to one reaches the next.
//
//datawa:hotpath
func (s *Search) commit(si int) core.Plan {
	sep, forest := &s.seps[si], s.forest(si)
	assignments, tasks := 0, 0
	for _, id := range forest {
		r := &s.results[id]
		assignments += r.to - r.from
		for _, c := range s.runs[r.g].out[r.from:r.to] {
			tasks += bits.OnesCount64(sep.Sets[c.w].Masks[c.k])
		}
	}
	if assignments == 0 {
		return nil
	}
	//datawa:alloc the plan, which the caller owns
	plan := make(core.Plan, 0, assignments)
	//datawa:alloc the committed sequences' tasks, which the plan owns: one array a plan
	backing := make(core.Sequence, 0, tasks)
	for _, id := range forest {
		r := &s.results[id]
		for _, c := range s.runs[r.g].out[r.from:r.to] {
			from := len(backing)
			backing = sep.Sets[c.w].AppendSeq(backing, sep.Tasks, int(c.k))
			plan = append(plan, core.Assignment{Worker: sep.Workers[c.w], Seq: backing[from:len(backing):len(backing)]})
		}
	}
	return plan
}

// searchJob is the forest fan-out's body: the i-th new tree of the current
// scenario, searched by goroutine g's run, which plan has pointed at the
// scenario. It is a method, and the scenario's first new tree a field, so that
// handing the loop to par costs no closure over the instant.
func (s *Search) searchJob(g, i int) {
	res := &s.results[s.fresh+i]
	s.runs[g].searchTree(res, s.taskFlat[s.taskOff[i]:s.taskOff[i+1]])
	res.g = g
}

// find returns the entry of the component that comp, a component of sep, is
// again, or -1 when no earlier scenario of the call held it. Candidates share
// its smallest member. One of comp's size whose scenario gave every member of
// comp the reachable set sep gives it is comp: those members are connected
// through those sets there as they are here, so they lie inside it, and fill it.
func (s *Search) find(seps []wds.Separation, sep *wds.Separation, comp []int) int {
candidates:
	for id := s.head[comp[0]]; id >= 0; id = s.results[id].next {
		r := &s.results[id]
		if int(r.size) != len(comp) {
			continue
		}
		for _, wi := range comp {
			if !sep.SharesSets(&seps[r.scenario], wi) {
				continue candidates
			}
		}
		return int(id)
	}
	return -1
}

// flatten is the Flat ablation: the tree collapsed into a single node holding
// every worker of the component.
func flatten(root *wds.TreeNode, workers []*core.Worker) *wds.TreeNode {
	index := root.AppendIndex(nil)
	slices.SortFunc(index, func(a, b int32) int { return workers[a].ID - workers[b].ID })
	return &wds.TreeNode{Index: index}
}

// partition splits the pool into per-tree task universes in one pass: every
// task reachable by one of a tree's workers, in pool order. The reachable
// sets of different trees are disjoint (sharing a task merges two workers
// into one dependency component), so this is a partition, and tasks reachable
// by no worker can never appear in any candidate sequence. Scoping each
// tree's availability this way also scopes the RL state to the tree's own
// tasks, so TVF features and samples cannot depend on sibling completion
// order.
func (s *Search) partition(sep *wds.Separation, forest []treeResult) {
	nt := len(sep.Tasks)
	treeOf := slices.Grow(s.treeOf[:0], nt)[:nt]
	for t := range treeOf {
		treeOf[t] = -1
	}
	// Bucket the pool per tree into one flat buffer: count, prefix-sum, fill.
	off := slices.Grow(s.taskOff[:0], len(forest)+1)[:len(forest)+1]
	off[0] = 0
	for i := range forest {
		off[i+1] = off[i] + claim(forest[i].root, int32(i), sep.Sets, treeOf)
	}
	flat := slices.Grow(s.taskFlat[:0], int(off[len(forest)]))[:off[len(forest)]]
	local := slices.Grow(s.local[:0], nt)[:nt]
	for t, i := range treeOf {
		if i >= 0 {
			flat[off[i]] = int32(t)
			off[i]++
		}
	}
	// The fill pass advanced every offset to its tree's end: shift them back.
	copy(off[1:], off[:len(forest)])
	off[0] = 0
	for i := range forest {
		for p, t := range flat[off[i]:off[i+1]] {
			local[t] = int32(p)
		}
	}
	s.treeOf, s.local, s.taskOff, s.taskFlat = treeOf, local, off, flat

	n := len(sep.Sets)
	s.reachOff = slices.Grow(s.reachOff[:0], n)[:n]
	s.virtual = slices.Grow(s.virtual[:0], n)[:n]
	s.reachLocal = s.reachLocal[:0]
	for i := range forest {
		s.localSets(forest[i].root, sep)
	}
}

// localSets writes reachOff, reachLocal and virtual for the workers of the
// subtree under n.
func (s *Search) localSets(n *wds.TreeNode, sep *wds.Separation) {
	for _, wi := range n.Index {
		s.reachOff[wi] = int32(len(s.reachLocal))
		var v uint64
		for k, t := range sep.Sets[wi].Index {
			s.reachLocal = append(s.reachLocal, s.local[t])
			if sep.Tasks[t].Virtual {
				v |= 1 << uint(k)
			}
		}
		s.virtual[wi] = v
	}
	for _, child := range n.Children {
		s.localSets(child, sep)
	}
}

// claim marks every task reachable from the subtree under n as belonging to
// the given tree and returns how many it marked.
func claim(n *wds.TreeNode, tree int32, sets []wds.WorkerSets, treeOf []int32) int32 {
	claimed := int32(0)
	for _, wi := range n.Index {
		for _, t := range sets[wi].Index {
			if treeOf[t] < 0 {
				treeOf[t] = tree
				claimed++
			}
		}
	}
	for _, child := range n.Children {
		claimed += claim(child, tree, sets, treeOf)
	}
	return claimed
}

// searchRun carries one worker goroutine's search state across the trees it
// serves within one Plan call. Nothing in it is keyed by id: tasks are
// positions in the current tree's universe, workers positions in
// Separation.Workers, sequences positions in their worker's Q_w, and "is
// every task of q still free" is a test of q's universe bits against the
// tree's availability (layout, transposition.go).
type searchRun struct {
	opts    Options
	sep     *wds.Separation
	now     float64
	model   *tvf.Model
	collect bool
	// reachOff/reachLocal are Search's per-worker tree-local reachable sets,
	// virtual its per-worker virtual-task words.
	reachOff, reachLocal []int32
	virtual              []uint64

	// Per tree.
	tasks   []int32 // the tree's universe as pool positions, pool order
	nodes   int
	greedy  int
	skipped int
	samples []tvf.Sample
	// The tree's layout (transposition.go), relWords words a row — one per 64
	// universe positions, bit p&63 of word p>>6 standing for position p. avail
	// is the availability, saved a copy a greedy completion restores. The rows,
	// one per (node, j) in pre-order — row relOff[n.ID]+j — hold what a search
	// call there can take: rel[row*relWords:][:relWords] the tasks reachable
	// from n.Index[j:] and every subtree below n, relMost[row] the most it can
	// take, the lengths of those workers' longest sequences summed. A row
	// before a node's last carries worker n.Index[j]: reachBits, the tasks it
	// reaches, and seqs, its Q_w as universe words beside their values; rowOf
	// names that row by the worker's position. reused counts the nodes taken
	// from transposition table entries instead of expanded.
	relWords  int
	avail     []uint64
	saved     []uint64
	relOff    []int32
	rel       []uint64
	relMost   []int32
	reachBits []uint64
	seqs      []seqRow
	rowOf     []int32
	words     arena[uint64]
	vals      arena[float64]
	reused    int
	table     transTable
	// stack holds the plans under construction as (worker, sequence)
	// choices in DFS order: every search call leaves its best plan on top,
	// so a parent keeps a child's result by not popping it. out collects the
	// finished plans of the trees this goroutine served.
	stack []choice
	out   []choice

	// RL state scratch: levels[d] is the state of the search call at depth d
	// (a call's state must outlive the deeper calls made between building it
	// and featurizing with it); open is the shared list of available tasks,
	// rebuilt by every state built.
	//
	// KNOWN BUG, kept on purpose: the task list is shared, not per depth, so a
	// Collect-mode sample is featurized from a list deeper calls have since
	// rewritten (feature 6 is off on ~4% of samples). Every TVF model trained
	// so far saw such samples; giving each level its own list is a three-line
	// change that moves paper-yueche's assigned_pct by up to 0.74 pp on single
	// seeds, so it waits for a change of its own (CHANGES.md). The sample
	// streams it moves are pinned: the fix shows as a diff of the samples= field
	// of the Collect rows in testdata/search.pins (TestSearchMatchesReference).
	levels []level
	open   []*core.Task
	// DFSearch_TVF scratch: the usable sequences of the current worker, their
	// features and the model's workspace for scoring them; and, for either
	// featurizing search, the sequence being featurized, as tasks.
	usable []int32
	feats  [][tvf.FeatureDim]float64
	batch  tvf.Batch
	seq    core.Sequence
}

// choice assigns sequence k of Q_w to the worker at position w.
type choice struct{ w, k int32 }

// level is the RL state (W_N + W_C, S) of one search call.
type level struct {
	workers []*core.Worker
	tasks   int // the state's task list is open[:tasks]
}

// searchTree searches res's tree over its task universe, appends the plan to
// r.out and records where, and what it cost, in res.
func (r *searchRun) searchTree(res *treeResult, universe []int32) {
	root := res.root
	r.tasks = universe
	r.nodes, r.greedy, r.skipped, r.reused = 0, 0, 0, 0
	r.samples = nil // escapes into the result; never reuse the backing
	r.stack = r.stack[:0]
	r.open = slices.Grow(r.open[:0], len(universe))
	r.layout(root, len(universe))
	if r.table.on = r.useTable(root); r.table.on {
		r.table.reset()
	}
	r.search(root, 0, 0)
	res.from, res.nodes, res.expanded, res.greedy, res.skipped = len(r.out), r.nodes, r.nodes-r.reused, r.greedy, r.skipped
	res.samples = r.samples
	r.out = append(r.out, r.stack...)
	res.to = len(r.out)
}

// value is the search objective contribution of sequence k of worker wi's
// Q_w: 1 per real task, VirtualWeight per virtual task. A sequence of real
// tasks only is worth its length, exactly; one with a virtual task is summed
// left to right in its order, the float sum a walk over its tasks makes.
//
//datawa:hotpath
func (r *searchRun) value(wi int32, set *wds.WorkerSets, k int) float64 {
	mask, virtual := set.Masks[k], r.virtual[wi]
	if mask&virtual == 0 {
		return float64(bits.OnesCount64(mask))
	}
	v := 0.0
	for _, p := range set.Order(k) {
		if virtual>>p&1 != 0 {
			v += r.opts.VirtualWeight
		} else {
			v++
		}
	}
	return v
}

// action returns worker wi taking sequence k of its Q_w, the sequence resolved
// into the run's one buffer: good until the next call.
func (r *searchRun) action(wi int32, set *wds.WorkerSets, k int) tvf.Action {
	r.seq = set.AppendSeq(r.seq[:0], r.sep.Tasks, k)
	return tvf.Action{Worker: r.sep.Workers[wi], Seq: r.seq}
}

// nextFit returns the first k ≥ from such that every task of sequence k of
// the row q is free, or -1: the first-fit of greedy completion and
// DFSearch_TVF's candidate list; expand scans its candidates the same way in
// line. Word 0 decides most sequences, and on a tree of one word all. Inlined
// into greedyFill's loop it spills that loop's state, which measured slower
// than the call.
//
//go:noinline
//datawa:hotpath
func (r *searchRun) nextFit(q *seqRow, from int) int {
	taken := ^r.avail[0]
	for k, m := range q.words[from:len(q.vals)] {
		if m&taken == 0 && r.fitsPast(q, from+k) {
			return from + k
		}
	}
	return -1
}

// fitsPast is the usable test of sequence k of the row q past word 0.
//
//datawa:hotpath
func (r *searchRun) fitsPast(q *seqRow, k int) bool {
	for i := 1; i < len(r.avail); i++ {
		if q.words[i*len(q.vals)+k]&^r.avail[i] != 0 {
			return false
		}
	}
	return true
}

// free reports whether any task of the given row of rows — rel or reachBits,
// relWords words a row — is free: on a tree of one word, one AND. A worker
// none of whose reachable tasks is free — most of a crowd instant's workers,
// most of the time — costs that and not a scan of its Q_w, and a greedy
// completion of a subtree with nothing relevant free costs it once.
//
//datawa:hotpath
func (r *searchRun) free(rows []uint64, row int32) bool {
	if len(r.avail) == 1 {
		return rows[row]&r.avail[0] != 0
	}
	at := int(row) * len(r.avail)
	for i, a := range r.avail {
		if rows[at+i]&a != 0 {
			return true
		}
	}
	return false
}

// flip takes the tasks of sequence k of the row q when they are all free, or
// gives them back when they are all taken.
//
//datawa:hotpath
func (r *searchRun) flip(q *seqRow, k int) {
	avail, n := r.avail, len(q.vals)
	avail[0] ^= q.words[k]
	for i := 1; i < len(avail); i++ {
		avail[i] ^= q.words[i*n+k]
	}
}

// flipPlan flips every sequence of a plan.
func (r *searchRun) flipPlan(plan []choice) {
	for _, c := range plan {
		r.flip(&r.seqs[r.rowOf[c.w]], int(c.k))
	}
}

// search is Algorithm 1 on the workers n.Index[j:] and the subtrees below n.
// It returns the best achievable objective value and leaves the plan
// realizing it on top of r.stack. When the node budget is exhausted the
// subtree completes greedily — unless completionBound shows the caller the
// completion cannot win, and the caller counts the call without making it.
// d is the call's depth, for the RL state scratch.
//
// With the transposition table on a subproblem — (n, j) and the availability
// of the tasks it can reach — is expanded once. A call that returned inside
// the budget stores what it returned, left on the stack and counted; a repeat
// counts as many nodes, pushes that plan and returns that value, which is what
// expanding it again would do. A repeat whose count would cross the budget is
// expanded again instead, so the budget falls on the same call, and splits
// exact from greedy the same way, as without the table.
func (r *searchRun) search(n *wds.TreeNode, j, d int) float64 {
	before := r.nodes
	r.nodes++
	row := r.relOff[n.ID] + int32(j)
	if r.nodes > r.opts.MaxNodes && r.model == nil { // DFSearch_TVF never backtracks: it has no budget
		r.greedy++
		return r.greedyComplete(n, j, row)
	}
	if !r.table.on {
		return r.expand(n, j, d, row)
	}
	word := r.avail[0] & r.rel[row]
	if e := r.table.lookup(row, word); e != nil && before+int(e.nodes) <= r.opts.MaxNodes {
		r.nodes = before + int(e.nodes)
		r.reused += int(e.nodes)
		r.stack = append(r.stack, r.table.plans[e.from:e.to]...)
		return e.value
	}
	base := len(r.stack)
	value := r.expand(n, j, d, row)
	if r.nodes <= r.opts.MaxNodes { // past the budget no call of this tree looks anything up again
		r.table.insert(row, word, value, r.nodes-before, r.stack[base:])
	}
	return value
}

// expand is the body of search at the given row, the one walk of every tree
// and every mode. Workers of the node are considered in id order; each worker
// branches over every usable q ∈ Q_w plus the skip option, which preserves the
// optimum the paper's worker loop explores while avoiding redundant
// permutations. A sequence is usable when its words lie inside availability,
// taking it flips them out, and the branch is undone by flipping them back.
// With a value model the worker instead commits to one sequence and the walk
// never backtracks (commitTVF).
//
//datawa:hotpath
func (r *searchRun) expand(n *wds.TreeNode, j, d int, row int32) float64 {
	base := len(r.stack)
	if j == len(n.Index) {
		// Line 15–16: recurse into each child; sibling subtrees are
		// independent, so their optima add. They share no task (workers that
		// share one are in the same dependency component), so only the RL
		// state, which lists the whole universe's open tasks, can tell whether
		// a child's plan is taken out of availability for the next child:
		// under Collect it is, and the sample pins hold it.
		total := 0.0
		for _, child := range n.Children {
			from := len(r.stack)
			total += r.search(child, 0, d+1)
			if r.collect {
				r.flipPlan(r.stack[from:])
			}
		}
		if r.collect {
			r.flipPlan(r.stack[base:])
		}
		return total
	}
	if r.model != nil {
		r.commitTVF(n, j, row)
		return r.search(n, j+1, d+1)
	}
	// Below the last worker of a leaf node a call finds nothing to decide: it
	// is counted where it would have been made, and the take and give back
	// around it left out — nothing reads availability in between, and a task
	// list rebuilt after the pair holds what it held before it.
	last := j+1 == len(n.Index) && len(n.Children) == 0

	// Skip branch: the worker gets nothing.
	var best float64
	if last {
		best = r.emptyCall()
	} else {
		best = r.search(n, j+1, d+1)
	}

	if r.collect {
		r.stateFor(r.levelAt(d), n, j)
	}
	if !r.free(r.reachBits, row) {
		return best
	}
	// Each branch gives back what it took, so availability is the same for
	// every k: word 0 of the scan is read once.
	wi, q := n.Index[j], &r.seqs[row]
	taken := ^r.avail[0]
	for k, m := range q.words[:len(q.vals)] {
		if m&taken != 0 || !r.fitsPast(q, k) {
			continue
		}
		value := q.vals[k]
		top := len(r.stack)
		r.stack = append(r.stack, choice{wi, int32(k)})
		var v float64
		switch {
		case last:
			v = r.emptyCall()
		// Every branch of a Collect run emits a sample of its own value, so
		// there each completion is run.
		case !r.collect && r.nodes >= r.opts.MaxNodes && value+r.completionBound(r.mostTaken(row+1, q, k)) <= best:
			v = r.skipCompletion()
		default:
			r.flip(q, k)
			v = r.search(n, j+1, d+1)
			r.flip(q, k)
		}
		total := v + value
		if total > best {
			best = total
			r.stack = r.stack[:base+copy(r.stack[base:], r.stack[top:])]
		} else {
			r.stack = r.stack[:top]
		}
		if r.collect && len(r.samples) < maxSamples {
			// Lines 9–11: record (s_t, a_t, opt).
			feat := tvf.Featurize(r.state(r.levelAt(d)), r.action(wi, &r.sep.Sets[wi], k), r.opts.WDS.Travel)
			r.samples = append(r.samples, tvf.Sample{Features: feat, Opt: total})
		}
	}
	return best
}

// emptyCall stands in for a search call with no worker and no subtree left:
// it counts a node — past the budget, a greedy completion — plans nothing and
// is worth nothing.
func (r *searchRun) emptyCall() float64 {
	r.nodes++
	if r.nodes > r.opts.MaxNodes {
		r.greedy++
	}
	return 0
}

// completionBound is the most a greedy completion that takes at most n tasks
// can add: n tasks at the most one task is worth. A branch whose own sequence
// plus that is not above the best branch so far cannot replace it (expand's
// strict >), so its completion need not run. The bound holds in floating point
// too: at a VirtualWeight of at most 1 every partial sum of a completion's
// values is at most its term count — an integer, held exactly — and rounding
// is monotone, so the completion's sum plus the branch's value never rounds
// above the bound plus it; above 1 the bound is padded by a relative 1e-12,
// more than the rounding error of a sum of thousands of terms.
func (r *searchRun) completionBound(n int) float64 {
	if w := r.opts.VirtualWeight; w > 1 {
		return float64(n) * w * (1 + 1e-12)
	}
	return float64(n)
}

// skipCompletion stands in for a greedy completion completionBound has ruled
// out: it is counted as one, where it would have been made — past the budget
// nothing reads the counts but their totals — and worth nothing, which leaves
// its branch below the best, as running it would have.
func (r *searchRun) skipCompletion() float64 {
	r.skipped++
	return r.emptyCall()
}

// mostTaken is the most tasks a call at the given row can take once sequence
// k of the row q is taken: every one it takes is free and relevant to the row,
// and each of the row's workers takes at most its longest sequence.
//
//datawa:hotpath
func (r *searchRun) mostTaken(row int32, q *seqRow, k int) int {
	at := int(row) * len(r.avail)
	free := bits.OnesCount64(r.rel[at] & r.avail[0] &^ q.words[k])
	for i := 1; i < len(r.avail); i++ {
		free += bits.OnesCount64(r.rel[at+i] & r.avail[i] &^ q.words[i*len(q.vals)+k])
	}
	return min(free, int(r.relMost[row]))
}

// greedyComplete finishes a subtree without branching once the exact budget
// is spent: each worker takes its best immediate sequence — the first usable
// one, Q_w being sorted best first. The plan is left on top of r.stack and
// availability restored from a copy.
func (r *searchRun) greedyComplete(n *wds.TreeNode, j int, row int32) float64 {
	r.saved = append(r.saved[:0], r.avail...)
	total := r.greedyFill(n, j, row)
	copy(r.avail, r.saved)
	return total
}

// greedyFill is greedyComplete's recursion from the given row: it leaves its
// picks taken. A subtree with nothing relevant to the row free takes nothing,
// and is left unwalked.
//
//datawa:hotpath
func (r *searchRun) greedyFill(n *wds.TreeNode, j int, row int32) float64 {
	if !r.free(r.rel, row) {
		return 0
	}
	total := 0.0
	for _, wi := range n.Index[j:] {
		if r.free(r.reachBits, row) {
			q := &r.seqs[row]
			if k := r.nextFit(q, 0); k >= 0 {
				r.flip(q, k)
				r.stack = append(r.stack, choice{wi, int32(k)})
				total += q.vals[k]
			}
		}
		row++
	}
	for _, child := range n.Children {
		total += r.greedyFill(child, 0, r.relOff[child.ID])
	}
	return total
}

// commitTVF is Algorithm 2 at worker n.Index[j], of the given row: it commits
// to the sequence in Q_w whose predicted long-term value is highest (line 8:
// q_best ← argmax_{q∈Q_W} TVF(s_t, (w,q))). A worker with no usable sequence
// is skipped.
func (r *searchRun) commitTVF(n *wds.TreeNode, j int, row int32) {
	wi, q := n.Index[j], &r.seqs[row]
	r.usable = r.usable[:0]
	for k := r.nextFit(q, 0); k >= 0; k = r.nextFit(q, k+1) {
		r.usable = append(r.usable, int32(k))
	}
	if len(r.usable) == 0 {
		return
	}
	lv := r.levelAt(0)
	r.stateFor(lv, n, j)
	st := r.state(lv)
	r.feats = r.feats[:0]
	for _, k := range r.usable {
		r.feats = append(r.feats, tvf.Featurize(st, r.action(wi, &r.sep.Sets[wi], int(k)), r.opts.WDS.Travel))
	}
	values := r.model.PredictBatch(&r.batch, r.feats)
	best := 0
	for i, v := range values {
		if v > values[best] {
			best = i
		}
	}
	// The learned value is an approximation; among candidates the model
	// considers near-equal (within a quarter task of the best), take the one
	// with the higher immediate value so approximation noise cannot discard an
	// obviously longer sequence.
	const nearTie = 0.25
	for i, v := range values {
		if v >= values[best]-nearTie && q.vals[r.usable[i]] > q.vals[r.usable[best]] {
			best = i
		}
	}
	k := r.usable[best]
	r.flip(q, int(k))
	r.stack = append(r.stack, choice{wi, k})
}

// levelAt returns the RL state scratch of depth d. The pointer is only good
// until the next levelAt call with a larger depth.
func (r *searchRun) levelAt(d int) *level {
	for len(r.levels) <= d {
		r.levels = append(r.levels, level{})
	}
	return &r.levels[d]
}

// stateFor materializes the RL state (W_N + W_C, S) at a search position
// into lv.
func (r *searchRun) stateFor(lv *level, n *wds.TreeNode, j int) {
	lv.workers = r.appendWorkers(lv.workers[:0], n, j)
	r.open = r.open[:0]
	for p, t := range r.tasks {
		if r.avail[p>>6]>>uint(p&63)&1 != 0 {
			r.open = append(r.open, r.sep.Tasks[t])
		}
	}
	lv.tasks = len(r.open)
}

// appendWorkers appends the workers n.Index[j:], then those of the subtrees
// below n in pre-order, to dst.
func (r *searchRun) appendWorkers(dst []*core.Worker, n *wds.TreeNode, j int) []*core.Worker {
	for _, wi := range n.Index[j:] {
		dst = append(dst, r.sep.Workers[wi])
	}
	for _, child := range n.Children {
		dst = r.appendWorkers(dst, child, 0)
	}
	return dst
}

func (r *searchRun) state(lv *level) tvf.State {
	return tvf.State{Workers: lv.workers, Tasks: r.open[:lv.tasks], Now: r.now}
}

// CollectSamples runs the exact DFSearch over one planning instant purely to
// gather TVF training data, the data-generation phase of Section IV-B.
func CollectSamples(workers []*core.Worker, tasks []*core.Task, now float64, o Options) []tvf.Sample {
	s := &Search{Opts: o, Collect: true}
	s.Plan(workers, tasks, now)
	return s.Samples
}
