package assign

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/tvf"
	"repro/internal/wds"
)

// refSearch is the map-and-scan search core this package ran before the
// dense-index rewrite — id-keyed sequence and tree tables, a per-tree
// taskSet.byID translation, a full candidate-list scan at every node and in
// every greedy completion — kept as the reference oracle of the differential
// tests. It plans serially from the same wds.Separate result as Search and
// must return the identical plan, node count and sample stream. On top of the
// old code it only splits the node counter (exact vs. greedy) and offers
// cloneState, the one-line fix of the RL-state aliasing bug both cores still
// share: stateFor then clones the availability set's slice view instead of
// handing out the shared cache that deeper calls rewrite.
type refSearch struct {
	Opts    Options
	Model   *tvf.Model
	Collect bool
	Samples []tvf.Sample

	cloneState bool

	NodesLastPlan int
	exactNodes    int // nodes the exact search expanded
	greedyCalls   int // post-budget calls that went straight to greedyComplete
	boundTrees    int // trees whose budget ran out
}

func (s *refSearch) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	o := s.Opts.WithDefaults()
	sep := wds.Separate(workers, tasks, now, o.WDS)
	reachable := make(map[int][]*core.Task, len(workers))
	sequences := make(map[int][]core.Sequence, len(workers))
	for i, w := range workers {
		reachable[w.ID] = at(sep.Tasks, sep.Sets[i].Index)
		sequences[w.ID] = seqsOf(sep, i)
	}
	forest := sep.Forest
	if o.Flat {
		flat := make([]*wds.TreeNode, len(forest))
		for i, root := range forest {
			index := root.AppendIndex(nil)
			sort.Slice(index, func(a, b int) bool { return workers[index[a]].ID < workers[index[b]].ID })
			flat[i] = &wds.TreeNode{Index: index}
		}
		forest = flat
	}
	treeOf := make(map[int]int)
	for i, root := range forest {
		for _, w := range at(workers, root.AppendIndex(nil)) {
			for _, t := range reachable[w.ID] {
				treeOf[t.ID] = i
			}
		}
	}
	treeTasks := make([][]*core.Task, len(forest))
	for _, t := range tasks {
		if i, ok := treeOf[t.ID]; ok {
			treeTasks[i] = append(treeTasks[i], t)
		}
	}

	var plan core.Plan
	s.NodesLastPlan, s.exactNodes, s.greedyCalls, s.boundTrees = 0, 0, 0, 0
	added := 0
	for i, root := range forest {
		run := &refRun{opts: o, workers: workers, sequences: sequences, now: now, model: s.Model, collect: s.Collect,
			clone: s.cloneState, seqIdx: make(map[int][][]int32)}
		run.ts.reset(treeTasks[i])
		if s.Model != nil {
			plan = append(plan, run.searchTVF(root, at(workers, root.Index))...)
		} else {
			_, sub := run.search(root, at(workers, root.Index))
			plan = append(plan, sub...)
		}
		s.NodesLastPlan += run.nodes
		s.exactNodes += run.exact
		s.greedyCalls += run.greedy
		if run.greedy > 0 {
			s.boundTrees++
		}
		// Each tree collects under its own maxSamples cap; the merged stream
		// is re-capped so one Plan call emits at most maxSamples.
		if room := maxSamples - added; s.Collect && room > 0 {
			if len(run.samples) > room {
				run.samples = run.samples[:room]
			}
			added += len(run.samples)
			s.Samples = append(s.Samples, run.samples...)
		}
	}
	return plan
}

// at resolves positions into pool, as a tree node's Index addresses
// Separation.Workers and a reachable set's Separation.Tasks.
func at[T any](pool []T, index []int32) []T {
	out := make([]T, len(index))
	for k, i := range index {
		out[k] = pool[i]
	}
	return out
}

// refRun carries the state of one tree's search within one Plan
// invocation: the tree-local task availability set and, per worker, the
// candidate sequences translated to task-index lists so the per-node
// usability filter is a dense array scan instead of a hash lookup per task —
// the filter runs once per worker per search node and dominated epoch CPU in
// hotspot regimes before the translation.
type refRun struct {
	opts      Options
	workers   []*core.Worker          // Separation.Workers, which tree nodes address
	sequences map[int][]core.Sequence // worker id → Q_w
	now       float64
	model     *tvf.Model
	nodes     int
	exact     int // nodes expanded by the exact search proper
	greedy    int // post-budget calls handed straight to greedyComplete
	collect   bool
	clone     bool // give every state a private copy of the task list
	samples   []tvf.Sample
	// ts is the tree's availability set; seqIdx caches, per worker id, each
	// sequence of Q_w as indices into ts (built on first use). Both are
	// reset-reused across the trees a worker goroutine serves.
	ts     taskSet
	seqIdx map[int][][]int32
}

// seqIndices returns w's candidate sequences as task-index lists into r.ts,
// building and caching them on first use. A nil entry marks a sequence
// containing a task outside the tree's universe (impossible by construction,
// but kept unusable rather than misindexed).
func (r *refRun) seqIndices(w *core.Worker) [][]int32 {
	idxs, ok := r.seqIdx[w.ID]
	if !ok {
		seqs := r.sequences[w.ID]
		idxs = make([][]int32, len(seqs))
		for k, q := range seqs {
			l := make([]int32, len(q))
			for j, s := range q {
				i, in := r.ts.byID[s.ID]
				if !in {
					l = nil
					break
				}
				l[j] = i
			}
			idxs[k] = l
		}
		r.seqIdx[w.ID] = idxs
	}
	return idxs
}

// candidates returns the usable subset of Q_w — the positions (into
// r.sequences[w.ID]) of the precomputed sequences whose tasks are all
// still available.
func (r *refRun) candidates(w *core.Worker) []int32 {
	idxs := r.seqIndices(w)
	var out []int32
	for k, l := range idxs {
		if l == nil {
			continue
		}
		ok := true
		for _, i := range l {
			if !r.ts.avail[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int32(k))
		}
	}
	return out
}

// search is Algorithm 1. It returns the best achievable objective value from
// this node and the plan realizing it. Workers of the node are considered in
// id order; each worker branches over every usable q ∈ Q_w plus the skip
// option, which preserves the optimum the paper's worker loop explores while
// avoiding redundant permutations. When the node budget is exhausted the
// subtree completes greedily.
func (r *refRun) search(n *wds.TreeNode, workers []*core.Worker) (float64, core.Plan) {
	r.nodes++
	if r.nodes > r.opts.MaxNodes {
		r.greedy++
		return r.greedyComplete(n, workers)
	}
	r.exact++
	if len(workers) == 0 {
		// Line 15–16: recurse into each child; sibling subtrees are
		// independent, so their optima add.
		total := 0.0
		var plan core.Plan
		for _, child := range n.Children {
			v, sub := r.search(child, at(r.workers, child.Index))
			for _, a := range sub {
				r.ts.removeSeq(a.Seq)
			}
			total += v
			plan = append(plan, sub...)
		}
		for _, a := range plan {
			r.ts.restoreSeq(a.Seq)
		}
		return total, plan
	}

	w := workers[0]
	rest := workers[1:]

	// Skip branch: w gets nothing.
	bestVal, bestPlan := r.search(n, rest)

	var st tvf.State
	if r.collect {
		st = r.stateFor(n, workers)
	}
	seqs := r.sequences[w.ID]
	idxs := r.seqIndices(w)
	for _, k := range r.candidates(w) {
		q := seqs[k]
		r.ts.removeIdx(idxs[k])
		v, sub := r.search(n, rest)
		r.ts.restoreIdx(idxs[k])
		total := v + seqValue(q, r.opts.VirtualWeight)
		if total > bestVal {
			bestVal = total
			bestPlan = append(core.Plan{{Worker: w, Seq: q}}, sub...)
		}
		if r.collect && len(r.samples) < maxSamples {
			// Lines 9–11: record (s_t, a_t, opt).
			feat := tvf.Featurize(st, tvf.Action{Worker: w, Seq: q}, r.opts.WDS.Travel)
			r.samples = append(r.samples, tvf.Sample{Features: feat, Opt: total})
		}
	}
	return bestVal, bestPlan
}

// greedyComplete finishes a subtree without branching once the exact budget
// is spent: each worker takes its best immediate sequence.
func (r *refRun) greedyComplete(n *wds.TreeNode, workers []*core.Worker) (float64, core.Plan) {
	total := 0.0
	var plan core.Plan
	var removed []core.Sequence
	for _, w := range workers {
		cands := r.candidates(w)
		if len(cands) == 0 {
			continue
		}
		q := r.sequences[w.ID][cands[0]]
		r.ts.removeSeq(q)
		removed = append(removed, q)
		total += seqValue(q, r.opts.VirtualWeight)
		plan = append(plan, core.Assignment{Worker: w, Seq: q})
	}
	for _, child := range n.Children {
		v, sub := r.greedyComplete(child, at(r.workers, child.Index))
		total += v
		plan = append(plan, sub...)
		for _, a := range sub {
			r.ts.removeSeq(a.Seq)
			removed = append(removed, a.Seq)
		}
	}
	for _, q := range removed {
		r.ts.restoreSeq(q)
	}
	return total, plan
}

// searchTVF is Algorithm 2: at each worker it commits to the sequence in
// Q_w whose predicted long-term value is highest (line 8:
// q_best ← argmax_{q∈Q_W} TVF(s_t, (w,q))) and never backtracks. A worker
// with no usable sequence is skipped.
func (r *refRun) searchTVF(n *wds.TreeNode, workers []*core.Worker) core.Plan {
	r.nodes++
	r.exact++
	var plan core.Plan
	if len(workers) > 0 {
		w := workers[0]
		ks := r.candidates(w)
		if len(ks) > 0 {
			seqs := r.sequences[w.ID]
			cands := make([]core.Sequence, len(ks))
			for i, k := range ks {
				cands[i] = seqs[k]
			}
			st := r.stateFor(n, workers)
			feats := make([][tvf.FeatureDim]float64, 0, len(cands))
			for _, q := range cands {
				feats = append(feats, tvf.Featurize(st, tvf.Action{Worker: w, Seq: q}, r.opts.WDS.Travel))
			}
			values := r.model.PredictBatch(feats)
			bestIdx := 0
			for i, v := range values {
				if v > values[bestIdx] {
					bestIdx = i
				}
			}
			// The learned value is an approximation; among candidates the
			// model considers near-equal (within a quarter task of the
			// best), take the one with the higher immediate value so
			// approximation noise cannot discard an obviously longer
			// sequence.
			const nearTie = 0.25
			for i, v := range values {
				if v >= values[bestIdx]-nearTie &&
					seqValue(cands[i], r.opts.VirtualWeight) > seqValue(cands[bestIdx], r.opts.VirtualWeight) {
					bestIdx = i
				}
			}
			q := cands[bestIdx]
			r.ts.removeSeq(q)
			plan = append(plan, core.Assignment{Worker: w, Seq: q})
		}
		plan = append(plan, r.searchTVF(n, workers[1:])...)
		return plan
	}
	for _, child := range n.Children {
		plan = append(plan, r.searchTVF(child, at(r.workers, child.Index))...)
	}
	return plan
}

// stateFor materializes the RL state (W_N + W_C, S) at a search position.
func (r *refRun) stateFor(n *wds.TreeNode, workers []*core.Worker) tvf.State {
	all := append([]*core.Worker(nil), workers...)
	for _, child := range n.Children {
		all = append(all, at(r.workers, child.AppendIndex(nil))...)
	}
	// The slice view is the set's shared cache: deeper stateFor calls rewrite
	// it in place before this state is featurized.
	tasks := r.ts.slice()
	if r.clone {
		tasks = slices.Clone(tasks)
	}
	return tvf.State{Workers: all, Tasks: tasks, Now: r.now}
}

// taskSet is the id-keyed availability set of the map-and-scan planners:
// O(1) removal and restoration over the deduped insertion order, and a
// deterministic slice view of what is left. The reference search and the
// reference Greedy and Match below are its only users.
type taskSet struct {
	byID  map[int]int32 // id → index into order; never mutated after build
	order []*core.Task  // deduped insertion order
	avail []bool        // availability by index
	dirty bool
	cache []*core.Task
}

func newTaskSet(tasks []*core.Task) *taskSet {
	ts := &taskSet{}
	ts.reset(tasks)
	return ts
}

// reset reinitializes the set over tasks, dropping every repeat of an id.
func (ts *taskSet) reset(tasks []*core.Task) {
	ts.byID = make(map[int]int32, len(tasks))
	ts.order, ts.avail, ts.cache = nil, nil, nil
	for _, t := range tasks {
		if _, dup := ts.byID[t.ID]; dup {
			continue
		}
		ts.byID[t.ID] = int32(len(ts.order))
		ts.order = append(ts.order, t)
		ts.avail = append(ts.avail, true)
	}
	ts.dirty = true
}

func (ts *taskSet) removeSeq(q core.Sequence) {
	for _, s := range q {
		if i, ok := ts.byID[s.ID]; ok {
			ts.avail[i] = false
		}
	}
	ts.dirty = true
}

// slice returns the available tasks in insertion order.
func (ts *taskSet) slice() []*core.Task {
	if !ts.dirty {
		return ts.cache
	}
	out := ts.cache[:0]
	for i, t := range ts.order {
		if ts.avail[i] {
			out = append(out, t)
		}
	}
	ts.cache = out
	ts.dirty = false
	return out
}

// refGreedy is the Greedy this package ran before the indexed worker scan:
// per worker, a brute-force reachable scan over the id-keyed set's slice view,
// the whole of Q_w generated, its head taken. Kept as the oracle of
// TestGreedyMatchesReference.
func refGreedy(o Options, workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	o = o.WithDefaults()
	ws := append([]*core.Worker(nil), workers...)
	slices.SortFunc(ws, func(a, b *core.Worker) int { return a.ID - b.ID })
	avail := newTaskSet(tasks)
	var plan core.Plan
	for _, w := range ws {
		rs := wds.ReachableTasks(w, avail.slice(), now, o.WDS)
		qs := wds.MaximalValidSequences(w, rs, now, o.WDS)
		if len(qs) == 0 {
			continue
		}
		avail.removeSeq(qs[0])
		plan = append(plan, core.Assignment{Worker: w, Seq: qs[0]})
	}
	return plan
}

// refMatch is the Match of the same vintage: virtual tasks filtered out of
// the pool, then the nearest reachable task of the slice view per worker.
func refMatch(o Options, workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	o = o.WithDefaults()
	o.WDS.MaxReachable = 1
	ws := append([]*core.Worker(nil), workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	var reals []*core.Task
	for _, s := range tasks {
		if !s.Virtual {
			reals = append(reals, s)
		}
	}
	avail := newTaskSet(reals)
	var plan core.Plan
	for _, w := range ws {
		rs := wds.ReachableTasks(w, avail.slice(), now, o.WDS)
		if len(rs) == 0 {
			continue
		}
		q := core.Sequence{rs[0]}
		avail.removeSeq(q)
		plan = append(plan, core.Assignment{Worker: w, Seq: q})
	}
	return plan
}

func (ts *taskSet) has(id int) bool {
	i, ok := ts.byID[id]
	return ok && ts.avail[i]
}

func (ts *taskSet) restoreSeq(q core.Sequence) {
	for _, s := range q {
		if i, ok := ts.byID[s.ID]; ok {
			ts.avail[i] = true
		}
	}
	ts.dirty = true
}

// removeIdx and restoreIdx are the pre-translated (index list) forms of
// removeSeq/restoreSeq used by the reference search's candidate loop.
func (ts *taskSet) removeIdx(idxs []int32) {
	for _, i := range idxs {
		ts.avail[i] = false
	}
	ts.dirty = true
}

func (ts *taskSet) restoreIdx(idxs []int32) {
	for _, i := range idxs {
		ts.avail[i] = true
	}
	ts.dirty = true
}

// seqsOf resolves worker i's Q_w to task sequences, in Q_w order.
func seqsOf(sep *wds.Separation, i int) []core.Sequence {
	q := make([]core.Sequence, len(sep.Sets[i].Masks))
	for k := range q {
		q[k] = slices.Clip(sep.Sets[i].AppendSeq(nil, sep.Tasks, k))
	}
	return q
}

// seqValue is the search objective contribution of a sequence: 1 per real
// task, VirtualWeight per virtual task.
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
