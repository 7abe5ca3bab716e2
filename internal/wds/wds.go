// Package wds implements Worker Dependency Separation (Section IV-A of the
// DATA-WA paper): finding each worker's reachable tasks, generating maximal
// valid task sequences (Eq. 10), constructing the Worker Dependency Graph,
// partitioning it into maximal cliques with Maximum Cardinality Search, and
// organizing the cliques into a Recursive Tree Construction (RTC) tree whose
// sibling subtrees are independent — the property that lets the assignment
// search solve each subtree separately.
package wds

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graphutil"
	"repro/internal/par"
	"repro/internal/spatial"
)

// Options bounds the search effort. Zero values take defaults chosen so a
// planning instant on city-scale data stays interactive on one core.
type Options struct {
	// Travel converts distance to time.
	Travel geo.TravelModel
	// MaxSeqLen caps the length of generated task sequences (default 3).
	MaxSeqLen int
	// MaxReachable caps the reachable set per worker to the nearest tasks
	// (default 8); the dependency graph and the sequence generator both
	// operate on the capped sets. Values above 64 are clamped to 64: a
	// sequence's task set is one word over its worker's reachable set
	// (WorkerSets.Masks).
	MaxReachable int
	// MaxSequences caps |Q_w| per worker after dedup (default 128).
	MaxSequences int
	// Parallelism bounds the goroutines used for the per-worker
	// reachable-set and sequence-generation loops inside Separate: 0 uses
	// up to one goroutine per CPU when the instant is large enough to pay
	// for them (reachGrain, sequenceGrain), 1 (or any negative value) runs
	// serially. Results are identical at every setting. The planners of
	// internal/assign set it from their own Options.Parallelism.
	Parallelism int
}

// maxReach is the widest reachable set: one bit of a mask word per task.
const maxReach = 64

// WithDefaults returns o with zero fields replaced by defaults and
// MaxReachable clamped to 64.
func (o Options) WithDefaults() Options {
	if o.Travel.Speed <= 0 {
		o.Travel = geo.NewTravelModel(0)
	}
	if o.MaxSeqLen <= 0 {
		o.MaxSeqLen = 3
	}
	if o.MaxReachable <= 0 {
		o.MaxReachable = 8
	}
	o.MaxReachable = min(o.MaxReachable, maxReach)
	if o.MaxSequences <= 0 {
		o.MaxSequences = 128
	}
	return o
}

// ReachableTasks returns RS_w, the subset of tasks worker w can serve within
// its availability window starting at time now (Section IV-A.1):
//
//	(i)   c(w.l, s.l) ≤ s.e − t_now  — reachable before expiration,
//	(ii)  c(w.l, s.l) ≤ T_w          — completable within the window,
//	(iii) td(w.l, s.l) ≤ w.d         — within reachable distance.
//
// The result is sorted by distance (ties by id) and capped at
// o.MaxReachable entries.
//
// This variant scans the given slice, as an index without a cell size does;
// Separate and ReachableTasksIndexed answer the same query through a spatial
// grid index, scanning only the tasks near w, with identical results.
func ReachableTasks(w *core.Worker, tasks []*core.Task, now float64, o Options) []*core.Task {
	return ReachableTasksIndexed(w, spatial.NewIndex(tasks, 0), now, o)
}

// ReachableTasksIndexed returns RS_w exactly as ReachableTasks does, but
// gathers candidates from the grid index instead of scanning every task:
// only tasks within w's disc (workerRadius) of w.Loc are examined, so the
// per-worker cost is O(k) in the local task count rather than O(|T|).
func ReachableTasksIndexed(w *core.Worker, ix *spatial.Index, now float64, o Options) []*core.Task {
	var sc Scratch
	return tasksOf(ix.Tasks(), sc.Reachable(w, ix, nil, now, o.WithDefaults()))
}

// Scratch holds the reusable intermediate buffers of the per-worker
// reachable-set and sequence computations, so steady-state planning loops
// (a planner calling these once per worker per instant) allocate nothing once
// the buffers have grown. A Scratch serves one goroutine at a time; Separate
// keeps one per worker goroutine, planners one per instance. The zero value is
// ready to use.
type Scratch struct {
	near   []spatial.Candidate // spatial-index query results
	keep   []spatial.Candidate // Reachable's nearest survivors
	checks int                 // distances computed by the reach stage's queries on this goroutine
	gen    seqGen              // Q_w generation
	best   bestPick

	// Arenas behind the WorkerSets this goroutine produced in the current
	// Separate call. Growth may move an arena; slices handed out earlier keep
	// the old backing alive and stay valid.
	index  []int32
	masks  []uint64
	orders []uint8
	pick   []int32      // one scenario's RS_w as pool positions, before it is known to be new
	rs     []*core.Task // one RS_w resolved to tasks, while its Q_w is generated
}

// Reachable returns RS_w over the indexed pool as (pool position, distance)
// pairs, nearest first (ties by id), capped at o.MaxReachable, in scratch
// storage valid until the next call. Only the tasks in w's disc are examined
// (workerRadius): every task that passes (i)–(iii) lies in it, and the exact
// checks decide — so a grid index and one without a cell size, which scans
// the pool, are interchangeable. A non-nil avail holds one flag per pool
// position; a position whose flag is clear is passed over before the cap
// applies, as if it were not in the pool. o must have its defaults applied.
//
//datawa:hotpath
func (sc *Scratch) Reachable(w *core.Worker, ix *spatial.Index, avail []bool, now float64, o Options) []spatial.Candidate {
	near, _ := sc.gather(w, ix, avail, now, o)
	return sc.nearest(ix.Tasks(), near, o.MaxReachable)
}

// gather returns the tasks of the indexed pool that worker w reaches at now —
// conditions (i)–(iii), the positions whose avail flag is clear passed over —
// as candidates in the index's order, in scratch storage valid until the next
// call, and how many distances its query computed. It is the worker side of
// the reach stage: one disc query on the task grid.
//
//datawa:hotpath
func (sc *Scratch) gather(w *core.Worker, ix *spatial.Index, avail []bool, now float64, o Options) (_ []spatial.Candidate, checked int) {
	if !w.Available(now) {
		return nil, 0
	}
	near, checked := ix.AppendCandidates(sc.near[:0], w.Loc, workerRadius(w, now, ix.LatestExpiry(), o))
	sc.near = near
	exps, window := ix.Expiries(), w.Off-now
	n := 0
	for _, c := range near {
		if (avail == nil || avail[c.Pos]) && reaches(exps[c.Pos], c.Dist, now, window, o) {
			near[n] = c
			n++
		}
	}
	return near[:n], checked
}

// reaches reports whether a worker on shift with window seconds of it left
// reaches a task expiring at exp, d away, at now: the task has validity left
// and the travel fits both it, (i), and the window, (ii). Condition (iii), d ≤
// the worker's reach, is the caller's query.
func reaches(exp, d, now, window float64, o Options) bool {
	if exp <= now {
		return false
	}
	travel := o.Travel.TimeForDist(d)
	return !(travel > exp-now || travel > window)
}

// nearest keeps the max nearest of one worker's candidates (nearer's order)
// by bounded insertion, in scratch storage valid until the next call: a
// crowded disc costs a compare per candidate, not a sort of all of them. The
// order is total, so the result is a function of the candidates as a set —
// whichever side of the reach stage gathered them, in whatever order.
//
//datawa:hotpath
func (sc *Scratch) nearest(pool []*core.Task, cands []spatial.Candidate, max int) []spatial.Candidate {
	keep := sc.keep[:0]
	for _, c := range cands {
		k := len(keep)
		if k < max {
			keep = append(keep, c)
		} else if k--; !nearer(pool, c, keep[k]) {
			continue
		}
		for ; k > 0 && nearer(pool, c, keep[k-1]); k-- {
			keep[k] = keep[k-1]
		}
		keep[k] = c
	}
	sc.keep = keep[:0]
	return keep
}

// nearestAcross is nearest for every sampled scenario of the pool at once. A
// scenario-tagged task (SampleBits != 0) is in some scenarios only, so it is
// kept without counting towards the cap, and the list ends at the max-th
// untagged task: nothing past that one can be among the max nearest of any
// scenario, which all hold the untagged tasks before it. Scenario s's RS_w is
// then the list's first max entries that scenario s contains. untagged is how
// many of the list count towards the cap; the rest are tagged.
//
//datawa:hotpath
func (sc *Scratch) nearestAcross(pool []*core.Task, cands []spatial.Candidate, max int) (keep []spatial.Candidate, untagged int) {
	keep = sc.keep[:0]
	for _, c := range cands {
		tagged := pool[c.Pos].SampleBits != 0
		k := len(keep)
		switch {
		case untagged < max:
			keep = append(keep, c)
			if !tagged {
				untagged++
			}
		case !nearer(pool, c, keep[k-1]): // at the cap the list ends with the last task that counts
			continue
		case tagged:
			keep = append(keep, c)
		default:
			k-- // c takes that task's place
		}
		for ; k > 0 && nearer(pool, c, keep[k-1]); k-- {
			keep[k] = keep[k-1]
		}
		keep[k] = c
		if !tagged && untagged == max {
			// The tagged tasks now behind the last one that counts are out of
			// every scenario's reach.
			n := len(keep)
			for pool[keep[n-1].Pos].SampleBits != 0 {
				n--
			}
			keep = keep[:n]
		}
	}
	sc.keep = keep[:0]
	return keep, untagged
}

// tasksOf resolves Reachable's result into a caller-owned task slice.
func tasksOf(pool []*core.Task, keep []spatial.Candidate) []*core.Task {
	if len(keep) == 0 {
		return nil
	}
	out := make([]*core.Task, len(keep))
	for k, c := range keep {
		out[k] = pool[c.Pos]
	}
	return out
}

// nearer is the reachable set's order: by distance, ties by id, then — for a
// pool repeating an id — by pool position.
func nearer(pool []*core.Task, a, b spatial.Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	ia, ib := pool[a.Pos].ID, pool[b.Pos].ID
	return ia < ib || ia == ib && a.Pos < b.Pos
}

// MaximalValidSequences computes Q_w: for every subset of the reachable set
// RS_w (up to o.MaxSeqLen tasks) that admits a valid ordering, the ordering
// with minimal completion time (Eq. 10). Sequences are returned longest
// first, then by completion time, then lexicographically by ids, and the
// list is capped at o.MaxSequences. Only the first 64 tasks of rs are
// considered, as under Options.MaxReachable.
//
// The search extends sequences task by task and prunes as soon as an
// extension violates Definition 4, which is sound because validity is
// prefix-closed.
//
// The sequences are capacity-capped slices of one array, owned by the caller.
func MaximalValidSequences(w *core.Worker, rs []*core.Task, now float64, o Options) []core.Sequence {
	if len(rs) == 0 {
		return nil
	}
	rs = rs[:min(len(rs), maxReach)]
	var g seqGen
	tuples := g.generate(w, rs, now, o.WithDefaults())
	if len(tuples) == 0 {
		return nil
	}
	total := 0
	for _, t := range tuples {
		total += int(t.n)
	}
	backing := make([]*core.Task, 0, total)
	out := make([]core.Sequence, len(tuples))
	for i, t := range tuples {
		from := len(backing)
		for _, k := range g.pos[t.off : t.off+t.n] {
			backing = append(backing, rs[k])
		}
		out[i] = backing[from:len(backing):len(backing)]
	}
	return out
}

// seqGen is the state of one Q_w generation. Orderings are tuples of
// positions in rs, back to back in pos: a task set is entered once, a better
// ordering of it overwrites the tuple in place (same set, same length), and
// nothing is a heap object until the survivors are known. Every table keeps
// the size of the widest call so far, and a call resets only what it uses, so
// a one-task call after a 64-task one costs what a one-task call costs.
type seqGen struct {
	rs     []*core.Task
	off    float64 // the worker's off time
	maxLen int
	far    uint64 // the positions no ordering takes: out of the worker's reach, or past rs
	// legs[r*len(rs)+j] is the travel time to rs[j] from row r: row 0 the
	// worker, row i+1 rs[i] — filled once a call, each entry by the
	// TravelModel.Time call it stands in for.
	legs   []float64
	window []window // rs[j]'s publication and expiry, side by side
	cur    []int32  // the ordering being extended
	tuples []seqTuple
	pos    []int32
	// sets finds a task set's tuple by its bitmask over rs positions — rs
	// holds at most 64 distinct tasks, so equal masks ⟺ equal id sets,
	// exactly the SetKey equivalence without the string allocations. It is
	// open-addressed (a slot with mask 0 is empty: no set is), grows at half
	// load, and slots[k] is where tuple k sits, so the next call's reset
	// clears exactly the slots this one filled.
	sets  []setSlot
	slots []int32
	byLen []seqTuple // the tuples split by length, longest first
	runs  []int32    // per length, where its run starts in byLen
}

// seqTuple is one deduped task set: pos[off:off+n] is its best ordering so
// far, completing at completion; mask is the set.
type seqTuple struct {
	completion float64
	mask       uint64
	off, n     int32
}

// window is a task's [Pub, Exp).
type window struct{ pub, exp float64 }

// setSlot is one entry of seqGen.sets: a task set and its tuple.
type setSlot struct {
	mask  uint64
	tuple int32
}

// generate returns Q_w as tuples in scratch storage, sorted longest first,
// then by completion time, then lexicographically by ids, and capped at
// o.MaxSequences.
func (g *seqGen) generate(w *core.Worker, rs []*core.Task, now float64, o Options) []seqTuple {
	g.rs, g.off, g.maxLen = rs, w.Off, o.MaxSeqLen
	n := len(rs)
	rows := 1 // at MaxSeqLen 1 no ordering is extended past its first task: only the worker's row is read
	if g.maxLen > 1 {
		rows += n
	}
	g.legs = slices.Grow(g.legs[:0], rows*n)[:rows*n]
	g.window = slices.Grow(g.window[:0], n)[:n]
	// A task beyond the worker's reach can extend nothing: it is far from the
	// start, as is every bit past rs.
	g.far = ^uint64(0) << uint(n)
	for j, s := range rs {
		g.window[j] = window{s.Pub, s.Exp}
		d := geo.Dist(w.Loc, s.Loc)
		g.legs[j] = o.Travel.TimeForDist(d) // = Time(w.Loc, s.Loc), bit for bit
		if d > w.Reach {
			g.far |= 1 << uint(j)
		}
	}
	for r := 1; r < rows; r++ {
		for j, s := range rs {
			g.legs[r*n+j] = o.Travel.Time(rs[r-1].Loc, s.Loc)
		}
	}
	// The sets of the last call leave the table; nothing else was in it.
	for _, k := range g.slots {
		g.sets[k] = setSlot{}
	}
	g.cur, g.tuples, g.pos, g.slots = g.cur[:0], g.tuples[:0], g.pos[:0], g.slots[:0]
	g.extend(0, now, 0)
	return g.sort(o.MaxSequences)
}

// sort orders the tuples as Q_w and cuts them at limit. A stable counting
// split by length lays the runs out longest first; each run within the cap is
// then sorted by (completion, ids), a total order over distinct sets, so the
// result is what a sort of the whole list would give. A run wholly past the
// cap is not sorted at all.
func (g *seqGen) sort(limit int) []seqTuple {
	top := min(g.maxLen, len(g.rs)) // the longest a tuple can be; its run comes first
	g.runs = slices.Grow(g.runs[:0], top+1)[:top+1]
	clear(g.runs)
	for _, t := range g.tuples {
		g.runs[top-int(t.n)+1]++
	}
	for l := 1; l <= top; l++ {
		g.runs[l] += g.runs[l-1]
	}
	// runs[l] now starts the run of length top-l; scattering in entry order
	// advances it to the run's end.
	g.byLen = slices.Grow(g.byLen[:0], len(g.tuples))[:len(g.tuples)]
	for _, t := range g.tuples {
		l := top - int(t.n)
		g.byLen[g.runs[l]] = t
		g.runs[l]++
	}
	for l, from := 0, int32(0); l < top && int(from) < limit; l++ {
		slices.SortFunc(g.byLen[from:g.runs[l]], g.compare)
		from = g.runs[l]
	}
	g.tuples, g.byLen = g.byLen, g.tuples
	return g.tuples[:min(len(g.tuples), limit)]
}

// extend enters the current ordering, ending at time t at row's location
// over the task set mask, and tries every unused reachable task after it, in
// position order. Validity is prefix-closed (Definition 4), so an extension
// that violates it is cut with everything below.
//
//datawa:hotpath
func (g *seqGen) extend(row int, t float64, mask uint64) {
	n := len(g.cur)
	if n > 0 {
		g.enter(t, mask)
	}
	if n >= g.maxLen {
		return
	}
	k := len(g.rs)
	legs, wins, off := g.legs[row*k:row*k+k], g.window, g.off
	for free := ^(mask | g.far); free != 0; free &= free - 1 {
		i := bits.TrailingZeros64(free)
		arrive, win := t+legs[i], wins[i]
		if arrive < win.pub {
			arrive = win.pub
		}
		if arrive >= win.exp || arrive >= off {
			continue
		}
		g.cur = append(g.cur, int32(i))
		g.extend(i+1, arrive, mask|1<<uint(i))
		g.cur = g.cur[:n]
	}
}

// enter records the current ordering, completing at t, unless its task set
// already has one completing no later.
//
//datawa:hotpath
func (g *seqGen) enter(t float64, mask uint64) {
	if 2*(len(g.tuples)+1) > len(g.sets) {
		g.grow()
	}
	k := g.find(mask)
	if g.sets[k].mask == 0 {
		g.sets[k] = setSlot{mask: mask, tuple: int32(len(g.tuples))}
		g.slots = append(g.slots, int32(k))
		g.tuples = append(g.tuples, seqTuple{completion: t, mask: mask, off: int32(len(g.pos)), n: int32(len(g.cur))})
		g.pos = append(g.pos, g.cur...)
		return
	}
	if tp := &g.tuples[g.sets[k].tuple]; t < tp.completion {
		tp.completion = t
		copy(g.pos[tp.off:], g.cur)
	}
}

// find returns the slot of mask in sets: where it is, or the empty slot where
// it would go. A set's home slot is the top bits of a Fibonacci hash of its
// mask, which every bit of the mask reaches.
//
//datawa:hotpath
func (g *seqGen) find(mask uint64) int {
	last := len(g.sets) - 1
	k := int(mask * 0x9e3779b97f4a7c15 >> (bits.LeadingZeros64(uint64(len(g.sets))) + 1))
	for g.sets[k].mask != mask && g.sets[k].mask != 0 {
		k = (k + 1) & last
	}
	return k
}

// grow doubles the set table (256 slots the first time) and re-enters this
// call's sets in entry order.
//
//datawa:hotpath
func (g *seqGen) grow() {
	//datawa:alloc amortized: the table doubles at half load and serves every later call of this Scratch
	g.sets = make([]setSlot, max(256, 2*len(g.sets)))
	for i, t := range g.tuples {
		k := g.find(t.mask)
		g.sets[k] = setSlot{mask: t.mask, tuple: int32(i)}
		g.slots[i] = int32(k)
	}
}

// compare is Q_w's order within one length: earliest completion, then least
// by ids.
func (g *seqGen) compare(a, b seqTuple) int {
	switch {
	case a.completion < b.completion:
		return -1
	case a.completion > b.completion:
		return 1
	}
	pa, pb := g.pos[a.off:a.off+a.n], g.pos[b.off:b.off+b.n]
	for k := range pa {
		if x, y := g.rs[pa[k]].ID, g.rs[pb[k]].ID; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// bestPick is the state of one BestSequence search.
type bestPick struct {
	w      *core.Worker
	pool   []*core.Task
	keep   []spatial.Candidate
	travel geo.TravelModel
	maxLen int
	used   []bool
	path   []spatial.Candidate // the sequence being extended
	// The head of Q_w so far: its length and completion time, and one ordering
	// per distinct task set that reached exactly those — the first the search
	// came to — n entries apiece.
	n    int
	t    float64
	reps []spatial.Candidate
}

// BestSequence returns the head of Q_w — what MaximalValidSequences(w, RS_w,
// now, o)[0] holds: longest, then earliest completion, then least by ids — as
// keep's entries in visiting order, in scratch storage valid until the next
// call; empty when Q_w is. keep must be Reachable's result for the same
// worker, pool, instant and options.
//
// It is the generator's depth-first extension (see seqGen), in the
// generator's order, with nothing kept but the current best: no per-set table,
// no clones, no sort. Once a MaxSeqLen-long sequence is known, an extension
// arriving strictly after its completion is cut — arrival times only grow
// along a sequence, so nothing below it can displace the best.
func (sc *Scratch) BestSequence(w *core.Worker, pool []*core.Task, keep []spatial.Candidate, now float64, o Options) []spatial.Candidate {
	b := &sc.best
	b.w, b.pool, b.keep, b.travel, b.maxLen = w, pool, keep, o.Travel, o.MaxSeqLen
	b.used = slices.Grow(b.used[:0], len(keep))[:len(keep)]
	clear(b.used)
	b.path, b.reps, b.n = b.path[:0], b.reps[:0], 0
	b.extend(w.Loc, now)

	// Equal (length, completion) across different task sets: least by ids.
	head := b.reps[:b.n]
	for r := b.n; r < len(b.reps); r += b.n {
		other := b.reps[r : r+b.n]
		if slices.CompareFunc(other, head, func(x, y spatial.Candidate) int { return pool[x.Pos].ID - pool[y.Pos].ID }) < 0 {
			head = other
		}
	}
	return head
}

// extend offers the current path, ending at loc at time t, and tries every
// unused reachable task after it. The first leg is the distance Reachable
// measured, then TravelModel.TimeForDist: Time(w.Loc, s.Loc), bit for bit.
//
//datawa:hotpath
func (b *bestPick) extend(loc geo.Point, t float64) {
	n := len(b.path)
	if n > 0 {
		b.offer(t)
	}
	if n >= b.maxLen {
		return
	}
	for k, c := range b.keep {
		if b.used[k] {
			continue
		}
		s := b.pool[c.Pos]
		var arrive float64
		if n == 0 {
			arrive = t + b.travel.TimeForDist(c.Dist)
		} else {
			arrive = t + b.travel.Time(loc, s.Loc)
		}
		if arrive < s.Pub {
			arrive = s.Pub
		}
		if arrive >= s.Exp || arrive >= b.w.Off || b.n == b.maxLen && arrive > b.t {
			continue
		}
		b.used[k] = true
		b.path = append(b.path, c)
		b.extend(s.Loc, arrive)
		b.path = b.path[:n]
		b.used[k] = false
	}
}

// offer compares the current path, completing at t, with the best so far. A
// task set is represented by its minimal-completion ordering and, among equal
// completions, by the one reached first; completions tie exactly whenever the
// last arrival is clamped to a virtual task's Pub, so orderings of one set
// must not be compared by id — only distinct sets are, at the end.
//
//datawa:hotpath
func (b *bestPick) offer(t float64) {
	n := len(b.path)
	switch {
	case n > b.n || n == b.n && t < b.t:
		b.n, b.t = n, t
		b.reps = append(b.reps[:0], b.path...)
	case n == b.n && t == b.t:
	reps:
		for r := 0; r < len(b.reps); r += n {
			for _, c := range b.path {
				if !slices.Contains(b.reps[r:r+n], c) {
					continue reps
				}
			}
			return // an earlier ordering of the same set
		}
		b.reps = append(b.reps, b.path...)
	}
}

// Separation is the full Worker Dependency Separation state for one
// planning instant: per-worker reachable sets and candidate sequences, the
// dependency graph, and the RTC forest — one tree per connected component of
// the workers that reach a task. A worker whose RS_w is empty (off shift, or
// with every task out of reach) has nothing to plan and is in no tree.
//
// Everything is addressed by dense index, and only by it: Sets, the graph's
// vertices and a tree node's workers by position in Workers, reachable tasks
// by position in Tasks, a sequence's tasks by position in its worker's
// reachable set. Consumers translate ids to small ints nowhere — the indices
// are handed out here, once.
//
// The Separations of one Separator.Scenarios call are siblings, one per
// sampled scenario over one pool: Tasks is that pool in all of them, whatever
// a scenario contains of it, and where a worker's reachable set is the same
// in two scenarios their Sets entries are one WorkerSets value — one Index,
// one Q_w, one set of masks (SharesSets).
type Separation struct {
	Workers []*core.Worker
	Tasks   []*core.Task // the planning pool
	Sets    []WorkerSets // Sets[i] belongs to Workers[i]
	// Graph is the dependency graph, with Workers' positions for vertices: it
	// holds the task groups and lays them out as sparse bit rows on its first
	// query, which planning never makes. A Separator has one graph: among
	// siblings it belongs to the one Components ran on last, nil in the others.
	Graph *graphutil.Graph
	// Forest holds one RTC tree per connected component of the workers that
	// reach a task, ordered by smallest member.
	Forest []*TreeNode
	// Sequences is Σ|Q_w| over Sets: the candidate sequences a search of the
	// forest has to consider, and so the measure of its work.
	Sequences int

	// first[i] is the lowest-numbered sibling whose Sets[i] is this one's.
	first []uint8
}

// SharesSets reports whether sep and its sibling o hold one value for worker
// i: the same reachable set, so the same Q_w. A dependency component whose
// members all do is the same component in both — same graph, same RTC tree,
// same task universe in the same order.
func (sep *Separation) SharesSets(o *Separation, i int) bool { return sep.first[i] == o.first[i] }

// WorkerSets is one worker's reachable set RS_w and candidate sequences Q_w,
// the sequences as positions in RS_w: it holds no task pointer, and a
// sequence becomes a core.Sequence only where a caller asks for one
// (AppendSeq) — a planner, for the ones its plan commits.
type WorkerSets struct {
	// Index is RS_w, nearest first, as positions in Separation.Tasks.
	Index []int32
	// Masks holds Q_w in order, one task set a sequence as a bitmask over
	// Index positions: sequence j uses Separation.Tasks[Index[k]] iff bit k of
	// Masks[j] is set. len(Masks) is |Q_w| and a mask's popcount its
	// sequence's length. Index holds at most 64 tasks (Options.MaxReachable),
	// so "are all of sequence j's tasks still free" is one AND-NOT against the
	// worker's availability word.
	Masks []uint64
	// Orders holds each sequence's ordering, the order the worker serves its
	// tasks in, as Index positions at a stride of min(MaxSeqLen, len(Index)):
	// see Order.
	Orders []uint8
}

// Order returns sequence k's ordering as positions in Index.
func (ws *WorkerSets) Order(k int) []uint8 {
	at := k * (len(ws.Orders) / len(ws.Masks))
	return ws.Orders[at : at+bits.OnesCount64(ws.Masks[k])]
}

// AppendSeq appends sequence k's tasks, in order, to dst and returns the
// extended slice; tasks is the pool Index addresses (Separation.Tasks).
func (ws *WorkerSets) AppendSeq(dst core.Sequence, tasks []*core.Task, k int) core.Sequence {
	for _, p := range ws.Order(k) {
		dst = append(dst, tasks[ws.Index[p]])
	}
	return dst
}

// TreeNode is one node of the RTC tree. Index holds the clique X′ installed
// at this node, as positions in Separation.Workers sorted by worker id;
// Children are the trees of the components obtained by removing X′. Workers
// in sibling subtrees are independent.
type TreeNode struct {
	Index    []int32
	Children []*TreeNode
	// ID numbers the nodes of one tree 0, 1, … in pre-order (the root is 0),
	// so per-node state of a tree's consumers is an array, not a map.
	ID int32
}

// AppendIndex appends the subtree's worker positions (see Index) to dst in
// pre-order, id-sorted within nodes.
func (n *TreeNode) AppendIndex(dst []int32) []int32 {
	dst = append(dst, n.Index...)
	for _, c := range n.Children {
		dst = c.AppendIndex(dst)
	}
	return dst
}

// Size returns the number of workers in the subtree.
func (n *TreeNode) Size() int {
	if n == nil {
		return 0
	}
	size := len(n.Index)
	for _, c := range n.Children {
		size += c.Size()
	}
	return size
}

// Depth returns the height of the subtree (a single node has depth 1).
func (n *TreeNode) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Separate runs the complete WDS pipeline for the given workers and tasks
// at time now: reachable sets, maximal valid sequences, worker dependency
// graph (workers are dependent iff they share a reachable task, Section
// IV-A.2), MCS clique partition and RTC tree construction (IV-A.3/IV-A.4),
// one tree per connected component of the workers that reach a task.
//
// Reachability is answered through a spatial grid — over the task pool,
// queried once per worker on shift, or, when the tasks are the fewer, over the
// workers on shift, queried once per task (see Separator.Scenarios and
// internal/spatial) — and the per-worker reachable-set and sequence loops fan
// out across up to o.Parallelism goroutines where they hold enough work. None
// of it changes more than the cost of the call: the Separation is the one a
// scan of the pool gives, at every setting.
func Separate(workers []*core.Worker, tasks []*core.Task, now float64, o Options) *Separation {
	var sp Separator
	return sp.Separate(workers, tasks, now, o)
}

// Separator runs the WDS pipeline with every intermediate structure — the
// per-goroutine scratch and result arenas, the spatial index, the dependency
// graph, the chordal workspace and the RTC builder — reused across calls, so
// a planner invoking it once per instant allocates, once they have grown,
// only the Children slices of its trees. The zero value is ready to use.
//
// The pipeline is three stages, and Separate their composition for one
// scenario: Scenarios (reachable sets and sequences, for every sampled
// scenario of the pool at once), Components (one scenario's dependency graph
// and the connected components of the workers that reach a task in it) and
// Tree (one component's RTC tree). A caller planning several scenarios runs
// the second and third per scenario and builds a tree only for a component it
// has not met in an earlier one. A worker reaching no task costs its place in
// the reach stage — a disc query on the task grid, or, when the tasks are the
// fewer, its insertion into the worker grid — and nothing more: no component,
// no tree.
//
// Everything returned is owned by the Separator and valid until its next
// Scenarios or Separate call — the Separations, the WorkerSets the siblings
// share and every tree — except the graph and the component lists, which the
// next Components call overwrites. Callers that retain a Separation across
// instants must use the package function instead.
type Separator struct {
	scr  []Scratch
	ix   spatial.Index
	g    graphutil.Graph
	b    treeBuilder
	seps []Separation
	// bound is the Separation the graph and the tree builder describe.
	bound *Separation
	// The instant being separated, for the fanned-out loops: time, options
	// with defaults applied, and the workers the loop at hand runs over — on
	// shift, then reaching a task in some scenario — as positions in the pool.
	now float64
	o   Options
	on  []int32
	// reach and sequences are reachJob and sequenceJob bound to jobsOf, made
	// once: a method value handed to par escapes, so each one made is an
	// allocation. A copied Separator, whose jobsOf is not itself, binds its own.
	reach, sequences func(g, k int)
	jobsOf           *Separator
	// The workers reaching a task in the scenario Components ran on last,
	// ascending: the graph's vertices that are in a component.
	reaching []int32
	// The reachable relation inverted by counting sort: the workers reaching
	// pool task t are byTask[taskOff[t]:taskOff[t+1]], ascending.
	taskOff []int32
	byTask  []int32
	// The reach stage's task side (gatherFromTasks): the workers on shift in
	// a grid at their locations, one disc query's hits, and every worker's
	// candidates as a list through cands and next, which listed[k] heads for
	// on[k].
	fromTasks bool
	grid      spatial.Grid
	locs      []geo.Point // sp.on's locations
	widest    float64     // the largest reach on shift
	hits      []spatial.Candidate
	head      []int32
	listed    []int32
	cands     []spatial.Candidate
	next      []int32
	// checks counts the distances the last reach stage computed.
	checks int
}

// side names where the reach stage gathers from. anySide takes the task side
// when the pool holds fewer tasks than there are workers on shift.
type side uint8

const (
	anySide side = iota
	workerSide
	taskSide
)

// The least work worth a goroutine of its own in Scenarios' two per-worker
// loops, against a goroutine's wake-up of ≈ 30–40 µs on the benchmark host
// (docs/BENCHMARKS.md, "Fan-out grains").
const (
	// reachGrain counts the workers the reach loop visits: those on shift
	// from the worker side, those some task reaches from the task side. RS_w
	// of a worker with nothing in reach costs 60–150 ns by its own query, and
	// ≈ 1.3 µs on a flash crowd: a pool of 512–623 on shift took 45 µs split
	// in two against 33 µs inline. The task side leaves the workers nothing
	// reaches out of the loop altogether.
	reachGrain = 512
	// sequenceGrain counts Σ|RS_w|² over the distinct reachable sets, known
	// exactly once the first loop is done. Q_w and its masks cost 100–220 ns a
	// unit on paper-yueche and on the event-spike crowd alike (0.65 ms for its
	// 3,020), so a grain is 0.1–0.2 ms; paper-yueche's 99th-percentile instant
	// holds 215.
	sequenceGrain = 1024
)

// Separate is the scratch-reusing form of the package function; see the
// Separator doc for the ownership contract of the result.
func (sp *Separator) Separate(workers []*core.Worker, tasks []*core.Task, now float64, o Options) *Separation {
	sep := &sp.Scenarios(workers, tasks, now, o, 1)[0]
	flat, offs := sp.Components(sep)
	for i := 0; i+1 < len(offs); i++ {
		sep.Forest = append(sep.Forest, sp.Tree(flat[offs[i]:offs[i+1]]))
	}
	return sep
}

// Scenarios is the pipeline's first stage for the k sampled scenarios of one
// pool: scenario s of k > 1 contains the tasks that carry no SampleBits or
// carry bit s, and k ≤ 1 is the one scenario that contains the whole pool. It
// returns one Separation a scenario with Workers, Tasks and Sets filled, Graph
// and Forest empty.
//
// The reach stage gathers each worker's candidates — the tasks it reaches by
// conditions (i)–(iii) — from the smaller side. With at least as many tasks as
// workers on shift, the pool is indexed once and each worker on shift queries
// it once. With fewer, the workers on shift are laid out in a grid and each
// task with validity left queries it once (gatherFromTasks), so a worker that
// no task reaches costs its insertion and no query. Either way a worker's
// candidates go through one bounded nearest-first insertion, and the sets are
// the same: scenario s's RS_w is the MaxReachable nearest of the candidates
// that scenario s contains — the filter applies before the cap — and Q_w and
// its masks are generated once per distinct reachable set, which the scenarios
// holding it share (Separation.SharesSets). Positions index the whole pool in
// every scenario, so tasks keep the relative order a filtered copy would give
// them.
func (sp *Separator) Scenarios(workers []*core.Worker, tasks []*core.Task, now float64, o Options, k int) []Separation {
	return sp.scenarios(workers, tasks, now, o, k, anySide)
}

// ReachChecks returns the distances the last Scenarios call computed while
// gathering reachable sets: the points of every grid cell its disc queries
// scanned, whichever side they ran from. It depends on the call's inputs
// alone, not on how its loops were shared out.
func (sp *Separator) ReachChecks() int { return sp.checks }

// scenarios is Scenarios with the side of the reach stage given.
func (sp *Separator) scenarios(workers []*core.Worker, tasks []*core.Task, now float64, o Options, k int, from side) []Separation {
	o = o.WithDefaults()
	k = max(k, 1)
	// The last call's siblings let go of what they described, including the
	// ones a smaller k leaves unused; whatever lies past a slice's length was
	// let go of the same way when it last fell out of use.
	for s := range sp.seps {
		sep := &sp.seps[s]
		clear(sep.Sets)
		clear(sep.Forest)
		*sep = Separation{Sets: sep.Sets[:0], Forest: sep.Forest[:0], first: sep.first[:0]}
	}
	sp.seps = slices.Grow(sp.seps[:0], k)[:k]
	for s := range sp.seps {
		sep := &sp.seps[s]
		sep.Workers, sep.Tasks = workers, tasks
		sep.Sets = slices.Grow(sep.Sets, len(workers))[:len(workers)]
		sep.first = slices.Grow(sep.first, len(workers))[:len(workers)]
		clear(sep.first)
	}
	sp.bound = nil
	sp.b.reset()

	sp.now, sp.o = now, o
	sp.workerSets(from)
	return sp.seps
}

// Components is the second stage: it returns the connected components of the
// workers that reach a task in sep, in graphutil.Components' format — each
// ascending, ordered by smallest vertex — as flat storage: component i is
// flat[offs[i]:offs[i+1]]. Workers are dependent iff they share a reachable
// task (Section IV-A.2), so a component is a union of task groups — the
// workers reaching one task — and is found by a union over the groups, with no
// worker pair ever listed. A worker whose RS_w is empty shares no task, has no
// sequence and so nothing to plan: it is in no component.
//
// sep.Graph is the dependency graph on Workers' positions, handed the groups
// and laid out as bit rows only if it is queried; the planner never queries
// it. The graph, the lists and the binding Tree builds from last until the
// next Components call. sep must be one of the last Scenarios call's
// Separations.
func (sp *Separator) Components(sep *Separation) (flat []int, offs []int32) {
	// Invert the reachable relation task → workers by a counting sort over
	// pool positions. Only the workers reaching a task in some scenario
	// (workerSets' list) can reach one in sep.
	tasks := len(sep.Tasks)
	off := slices.Grow(sp.taskOff[:0], tasks+1)[:tasks+1]
	clear(off)
	sep.Sequences = 0
	reaching := sp.reaching[:0]
	for _, i := range sp.on {
		ws := &sep.Sets[i]
		if len(ws.Index) == 0 {
			continue
		}
		reaching = append(reaching, i)
		sep.Sequences += len(ws.Masks)
		for _, t := range ws.Index {
			off[t+1]++
		}
	}
	sp.reaching = reaching
	for t := 0; t < tasks; t++ {
		off[t+1] += off[t]
	}
	byTask := slices.Grow(sp.byTask[:0], int(off[tasks]))[:off[tasks]]
	for _, i := range reaching {
		for _, t := range sep.Sets[i].Index {
			byTask[off[t]] = i
			off[t]++
		}
	}
	// The fill pass advanced every offset to its group's end, which is where
	// the next group starts.
	copy(off[1:], off[:tasks])
	off[0] = 0
	sp.taskOff, sp.byTask = off, byTask
	if sp.bound != nil {
		sp.bound.Graph = nil
	}
	sp.bound = sep
	sp.g.ResetGroups(len(sep.Workers), off, byTask)
	sep.Graph = &sp.g
	return sp.b.components(len(sep.Workers), reaching, off, byTask)
}

// Tree is the third stage: the RTC tree of one of the components the last
// Components call returned.
func (sp *Separator) Tree(comp []int) *TreeNode {
	b := &sp.b
	b.treeStart = len(b.nodes)
	switch {
	case len(comp) == 0:
		return nil
	case len(comp) <= 2:
		// A 1- or 2-worker component has exactly one maximal clique — the
		// component itself — whose removal leaves nothing, so the tree is a
		// single node. These dominate sparse instants; building them directly
		// skips the rows, the chordal fill-in and the clique machinery.
		from := len(b.iarena)
		for _, v := range comp {
			b.iarena = append(b.iarena, int32(v))
		}
		return b.newNode(sp.bound.Workers, from)
	}
	root := b.build(sp.bound.Workers, b.rootLevel(comp, sp.bound.Sets, sp.taskOff, sp.byTask))
	b.pos, b.offs, b.at, b.words = b.pos[:0], b.offs[:0], b.at[:0], b.words[:0]
	return root
}

// workerSets fills every sibling's Sets. Each worker's RS_w and Q_w depend only
// on that worker and the shared read-only pool, so both loops are
// embarrassingly parallel; results land in per-index slots, backed by the
// arenas of whichever goroutine's scratch computed them. Both run over a
// compacted index list, so what they fan out by counts work, not pool slots:
// the reachable sets over the workers on shift — or, gathered from the task
// side, over the ones a task reaches — the sequences over the workers that
// reach anything, weighed by how much they reach.
func (sp *Separator) workerSets(from side) {
	workers, pool := sp.seps[0].Workers, sp.seps[0].Tasks
	for i := range sp.scr {
		sp.scr[i].resetArenas()
	}
	// The workers on shift, with their locations and the largest reach among
	// them for the task side, which would otherwise visit each worker again.
	on, locs, widest, now := sp.on[:0], sp.locs[:0], 0.0, sp.now
	for i, w := range workers {
		if w.Available(now) {
			on, locs = append(on, int32(i)), append(locs, w.Loc)
			if w.Reach > widest {
				widest = w.Reach
			}
		}
	}
	sp.on, sp.locs, sp.widest = on, locs, widest
	sp.checks = 0
	sp.fromTasks = from == taskSide || from == anySide && len(pool) < len(sp.on)
	if sp.fromTasks {
		sp.ix.Reset(nil, 0)
		sp.gatherFromTasks()
	} else {
		sp.ix.Reset(pool, IndexCell(workers, pool, now, sp.o))
	}
	if sp.jobsOf != sp {
		sp.reach, sp.sequences, sp.jobsOf = sp.reachJob, sp.sequenceJob, sp
	}
	par.DoWorker(len(sp.on), sp.scratchFor(len(sp.on), reachGrain), sp.reach)
	for i := range sp.scr {
		sp.checks += sp.scr[i].checks
	}
	// A worker's generation tries every ordered pair of its reachable tasks
	// (and, where deadlines allow, every triple): |RS_w|² is what its cost
	// grows with, and 43 workers reaching one task are not 43 reaching eight.
	reaching, work := 0, 0
	for _, i := range sp.on {
		mine := 0
		for s := range sp.seps {
			if r := len(sp.seps[s].Sets[i].Index); int(sp.seps[s].first[i]) == s {
				mine += r * r
			}
		}
		if mine > 0 {
			sp.on[reaching] = i
			reaching++
			work += mine
		}
	}
	sp.on = sp.on[:reaching]
	par.DoWorker(reaching, sp.scratchFor(work, sequenceGrain), sp.sequences)
}

// gatherFromTasks is the reach stage's task side, for a pool holding fewer
// tasks than there are workers on shift. Each task with validity left has a
// disc: the largest reach on shift, or, if smaller, the farthest a worker can
// be and still arrive before the task expires. The workers on shift inside
// the discs' bounding box go into a grid at their locations (workerSets
// gathered them), and each task visits the workers in the cells of its disc.
// A visited worker keeps the task if the exact checks pass — d ≤ its reach,
// and (i) and (ii) as gather applies them — so each keeps exactly the
// candidates its own disc query would have found, on a list of its own, and
// sp.on is narrowed to the workers some task reaches: one that none does
// costs a look at its location and nothing more.
func (sp *Separator) gatherFromTasks() {
	workers, pool, now, o, reach := sp.seps[0].Workers, sp.seps[0].Tasks, sp.now, sp.o, sp.widest
	// The grid spans the discs the tasks will query, in cells as wide as the
	// widest: a worker outside them all is in no cell. A disc's NaN or
	// infinite extent makes the box so, and the grid one that scans.
	cell, box := 0.0, geo.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, s := range pool {
		if r := taskRadius(s, now, reach, o); r >= 0 {
			cell = max(cell, r)
			box.MinX, box.MaxX = min(box.MinX, s.Loc.X-r), max(box.MaxX, s.Loc.X+r)
			box.MinY, box.MaxY = min(box.MinY, s.Loc.Y-r), max(box.MaxY, s.Loc.Y+r)
		}
	}
	sp.grid.ResetWithin(sp.locs, box, cell)
	// Each worker's candidates are a list threaded through cands: head[k] is
	// one past the last found for on[k] (0: none yet), next one past the one
	// found before it.
	head := slices.Grow(sp.head[:0], len(sp.on))[:len(sp.on)]
	clear(head)
	cands, next, listed := sp.cands[:0], sp.next[:0], sp.listed[:0]
	for t, s := range pool {
		hits, checked := sp.grid.AppendCandidates(sp.hits[:0], s.Loc, taskRadius(s, now, reach, o))
		sp.hits, sp.checks = hits, sp.checks+checked
		for _, c := range hits {
			if w := workers[sp.on[c.Pos]]; c.Dist <= w.Reach && reaches(s.Exp, c.Dist, now, w.Off-now, o) {
				if head[c.Pos] == 0 {
					listed = append(listed, c.Pos)
				}
				cands, next = append(cands, spatial.Candidate{Dist: c.Dist, Pos: int32(t)}), append(next, head[c.Pos])
				head[c.Pos] = int32(len(cands))
			}
		}
	}
	// sp.on narrows to the workers some task reaches, ascending, and listed
	// to the heads of their lists.
	slices.Sort(listed)
	for j, k := range listed {
		sp.on[j], listed[j] = sp.on[k], head[k] // j ≤ k: places not read again
	}
	sp.on, sp.head, sp.listed, sp.cands, sp.next = sp.on[:len(listed)], head, listed, cands, next
}

// taskRadius is the disc task s queries the worker grid with: none (−1) once
// it has expired, else the largest reach on shift, or the distance a worker
// can cover before the task expires where that is smaller.
func taskRadius(s *core.Task, now, reach float64, o Options) float64 {
	if s.Exp <= now {
		return -1
	}
	if d := o.Travel.DistWithin(s.Exp - now); d < reach {
		return d
	}
	return reach
}

// workerRadius is the disc worker w, on shift at now, queries the task index
// with: its reach, (iii), or where smaller the distance it can cover before
// its shift ends, (ii), or before latest, the pool's latest expiry, (i). A
// task outside it fails one of the three, so the disc loses no task that
// reaches keeps. A NaN or infinite latest leaves the reach and the window:
// the comparison drops the bound it would give.
func workerRadius(w *core.Worker, now, latest float64, o Options) float64 {
	r := w.Reach
	if d := o.Travel.DistWithin(w.Off - now); d < r {
		r = d
	}
	if d := o.Travel.DistWithin(latest - now); d < r {
		r = d
	}
	return r
}

// IndexCell is the cell size of a task index over tasks for the reach queries
// of workers at now: the widest disc (workerRadius) a worker on shift queries
// it with, 0 when there is none. o must have its defaults applied.
func IndexCell(workers []*core.Worker, tasks []*core.Task, now float64, o Options) float64 {
	latest, widest := spatial.LatestExpiry(tasks), 0.0
	for _, w := range workers {
		if !w.Available(now) {
			continue
		}
		if r := workerRadius(w, now, latest, o); r > widest {
			widest = r
		}
	}
	return widest
}

// reachJob and sequenceJob are the two loops' bodies for the k-th listed
// worker on goroutine g. They are methods, and the instant's inputs fields,
// so that handing a loop to par costs no closure over the options.
func (sp *Separator) reachJob(g, k int) {
	sc, i := &sp.scr[g], int(sp.on[k])
	var cands []spatial.Candidate
	if sp.fromTasks {
		cands = sc.near[:0]
		for p := sp.listed[k]; p != 0; p = sp.next[p-1] {
			cands = append(cands, sp.cands[p-1])
		}
		sc.near = cands
	} else {
		var checked int
		cands, checked = sc.gather(sp.seps[0].Workers[i], &sp.ix, nil, sp.now, sp.o)
		sc.checks += checked
	}
	sc.reachSets(sp.seps, i, cands, sp.o)
}

func (sp *Separator) sequenceJob(g, k int) {
	i := sp.on[k]
	for s := range sp.seps {
		sep := &sp.seps[s]
		ws := &sep.Sets[i]
		if first := int(sep.first[i]); first != s {
			*ws = sp.seps[first].Sets[i]
		} else if len(ws.Index) > 0 {
			sp.scr[g].sequenceSets(sep.Workers[i], sep.Tasks, ws, sp.now, sp.o)
		}
	}
}

// scratchFor resolves how many goroutines a loop holding the given work is
// worth and makes sure each of them has a Scratch.
func (sp *Separator) scratchFor(work, grain int) int {
	fan := par.Workers(sp.o.Parallelism, work, grain)
	for len(sp.scr) < fan {
		sp.scr = append(sp.scr, Scratch{})
	}
	return fan
}

// resetArenas empties the result arenas and the check count for a new
// Separate call.
func (sc *Scratch) resetArenas() {
	sc.index, sc.masks, sc.orders = sc.index[:0], sc.masks[:0], sc.orders[:0]
	sc.checks = 0
}

// reachSets computes RS_w of the available worker at position i in each of the
// sibling scenarios, into the arenas, from the tasks it reaches (cands, from
// either side of the reach stage): the nearest of them for one scenario, or
// one list for all (nearestAcross), then per scenario the MaxReachable nearest
// of the list that the scenario contains. A scenario whose set an earlier one
// already holds takes that one's value and names it in first; with no tagged
// task in the list that is all of them. Every slice handed out is
// capacity-capped: nothing can append through it into a neighbour's span.
func (sc *Scratch) reachSets(seps []Separation, i int, cands []spatial.Candidate, o Options) {
	pool := seps[0].Tasks
	var keep []spatial.Candidate
	var untagged int
	if len(seps) > 1 {
		keep, untagged = sc.nearestAcross(pool, cands, o.MaxReachable)
	} else { // one scenario, the pool as it is: tags mean nothing
		keep = sc.nearest(pool, cands, o.MaxReachable)
		untagged = len(keep)
	}
	if len(keep) == 0 {
		return // nothing in reach, in any scenario: the cleared Sets[i] and first[i] say so
	}
	tagged := untagged < len(keep)
scenarios:
	for s := range seps {
		if s > 0 && !tagged {
			seps[s].Sets[i] = seps[0].Sets[i]
			continue
		}
		pick := sc.pick[:0]
		for _, c := range keep {
			if bits := pool[c.Pos].SampleBits; tagged && bits != 0 && bits>>uint(s)&1 == 0 {
				continue
			}
			if pick = append(pick, c.Pos); len(pick) == o.MaxReachable {
				break
			}
		}
		sc.pick = pick
		for e := 0; e < s; e++ {
			if int(seps[e].first[i]) == e && slices.Equal(seps[e].Sets[i].Index, pick) {
				seps[s].Sets[i], seps[s].first[i] = seps[e].Sets[i], uint8(e)
				continue scenarios
			}
		}
		i0 := len(sc.index)
		sc.index = append(sc.index, pick...)
		seps[s].Sets[i] = WorkerSets{Index: sc.index[i0:len(sc.index):len(sc.index)]}
		seps[s].first[i] = uint8(s)
	}
}

// sequenceSets computes Q_w over the reachable set ws already holds — pool
// positions, resolved into scratch for the generator — into the arenas,
// capacity-capped as reachSets' are. The generator's tuples are already
// positions in Index, and its dedup key is the mask: both are copied as they
// are, and nothing is a task slice.
//
//datawa:hotpath
func (sc *Scratch) sequenceSets(w *core.Worker, pool []*core.Task, ws *WorkerSets, now float64, o Options) {
	rs := sc.rs[:0]
	for _, t := range ws.Index {
		rs = append(rs, pool[t])
	}
	g := &sc.gen
	tuples := g.generate(w, rs, now, o)
	clear(rs)
	sc.rs, g.rs = rs[:0], nil
	stride := min(o.MaxSeqLen, len(ws.Index))
	m0, o0 := len(sc.masks), len(sc.orders)
	sc.orders = slices.Grow(sc.orders, len(tuples)*stride)[:o0+len(tuples)*stride]
	for k, t := range tuples {
		sc.masks = append(sc.masks, t.mask)
		order := sc.orders[o0+k*stride : o0+(k+1)*stride]
		for j, p := range g.pos[t.off : t.off+t.n] {
			order[j] = uint8(p)
		}
		clear(order[t.n:])
	}
	ws.Masks = sc.masks[m0:len(sc.masks):len(sc.masks)]
	ws.Orders = sc.orders[o0:len(sc.orders):len(sc.orders)]
}

// treeBuilder carries the component and RTC construction state: the union
// over task groups, the chordal workspace, and arenas reused across every
// node of every tree, so a tree costs no allocation beyond its nodes' Children
// slices once the arenas have grown.
//
// Each subproblem of the recursion is a level: a connected set of m workers
// numbered 0..m-1 in position order, with its dependency graph as sparse bit
// rows (graphutil.Rows), so a worker costs min(degree, ⌈m/64⌉) words. A
// candidate clique is probed, and the winner's residual components are found,
// by a walk over word masks; a child level is its parent's rows restricted to
// one residual component and renumbered, and the chordal workspace loads a
// level's rows as they are.
type treeBuilder struct {
	ch graphutil.Chordal
	// up is the union's parent links over worker positions, each set's root
	// its smallest member. local maps a worker position to its component's
	// number while components lays them out, and then to its index in the
	// component Tree is building.
	up    []int32
	local []int32
	// group[t] is the span of gAt/gWords holding pool task t's group as a bit
	// mask over the component being built: (word index, word) pairs,
	// ascending. Valid for that component's tasks only.
	group  [][2]int32
	gAt    []int32
	gWords []uint64
	// A row being accumulated from group masks, dense, and which of its words
	// are touched, one bit a word; both all zero between rows.
	acc  []uint64
	used []uint64
	// The levels of the recursion, stacked: every level's worker positions
	// and rows, and the children of the levels being built. A level's data is
	// not written after it is laid out, so a view of it stays valid however
	// the arenas above it grow.
	pos    []int32
	offs   []int32
	at     []int32
	words  []uint64
	levels []level
	// One level's walk, used before it recurses: the vertices not yet walked,
	// the winning clique, the queue, each residual vertex's component (−1 for
	// the clique's) and index in it, and the components laid out ascending —
	// component c is members[start[c]:start[c+1]].
	open    []uint64
	clique  []uint64
	queue   []int32
	label   []int32
	rank    []int32
	start   []int32
	members []int32
	// Arenas for the construction's results: tree nodes and the backing of
	// node.Index. All live until the next reset call (the Separations'
	// lifetime), so steady-state tree building allocates only on growth. Each
	// node's span is completed before any other node starts (cliques are
	// installed before recursing), which keeps the spans contiguous;
	// grown-over backings stay alive through the tree's own pointers.
	nodes     []TreeNode
	treeStart int // len(nodes) when the tree under construction began
	iarena    []int32
	compFlat  []int
	compOffs  []int32
}

// level is one subproblem of the RTC recursion: pos[i] is the worker at local
// index i, ascending, and rows the dependency graph among them.
type level struct {
	pos  []int32
	rows graphutil.Rows
}

// reset empties the arenas, ending the life of every tree built from them.
func (b *treeBuilder) reset() {
	clear(b.nodes)
	b.nodes = b.nodes[:0]
	b.iarena = b.iarena[:0]
}

// newNode allocates a tree node from the arena whose clique X′ is the worker
// positions appended to iarena since from, sorted here by worker id. Arena
// growth may move a backing array; nodes and spans handed out earlier remain
// valid (kept alive by the tree's pointers), they just no longer share
// storage with newer ones. The spans are capacity-capped: nothing can append
// through them into the arena.
func (b *treeBuilder) newNode(workers []*core.Worker, from int) *TreeNode {
	index := b.iarena[from:len(b.iarena):len(b.iarena)]
	slices.SortFunc(index, func(x, y int32) int { return workers[x].ID - workers[y].ID })
	b.nodes = append(b.nodes, TreeNode{
		Index: index,
		// A node is created before any of its descendants and after the whole
		// of every earlier sibling's subtree: creation order is pre-order.
		ID: int32(len(b.nodes) - b.treeStart),
	})
	return &b.nodes[len(b.nodes)-1]
}

// components unions the workers of every group of n workers (group t is
// byTask[off[t]:off[t+1]]) and returns the sets that hold the given ascending
// seeds — every member of every group is one — each ascending, ordered by
// smallest member, in builder-owned flat storage: component i is
// flat[offs[i]:offs[i+1]], valid until the next call.
//
//datawa:hotpath
func (b *treeBuilder) components(n int, seeds, off, byTask []int32) (flat []int, offs []int32) {
	up := slices.Grow(b.up[:0], n)[:n]
	for _, v := range seeds {
		up[v] = v
	}
	for t := 0; t+1 < len(off); t++ {
		group := byTask[off[t]:off[t+1]]
		if len(group) < 2 {
			continue
		}
		r := root(up, group[0])
		for _, u := range group[1:] {
			switch ru := root(up, u); {
			case ru < r:
				up[r], r = ru, ru
			case ru > r:
				up[ru] = r
			}
		}
	}
	// A root is its set's smallest member, so numbering the roots in seed
	// order numbers the components by smallest member; a counting sort then
	// lays each out ascending.
	b.up, b.local = up, slices.Grow(b.local[:0], n)[:n]
	b.group = slices.Grow(b.group[:0], len(off)-1)[:len(off)-1]
	offs = append(b.compOffs[:0], 0)
	for _, v := range seeds {
		c := int32(len(offs) - 1)
		if r := root(up, v); r != v {
			c = b.local[r]
		} else {
			offs = append(offs, 0)
		}
		b.local[v] = c
		offs[c+1]++
	}
	for c := 1; c < len(offs); c++ {
		offs[c] += offs[c-1]
	}
	flat = slices.Grow(b.compFlat[:0], len(seeds))[:len(seeds)]
	for _, v := range seeds {
		c := b.local[v]
		flat[offs[c]] = int(v)
		offs[c]++
	}
	copy(offs[1:], offs)
	offs[0] = 0
	b.compFlat, b.compOffs = flat, offs
	return flat, offs
}

// root returns the root of v's set, halving the path to it.
func root(up []int32, v int32) int32 {
	for up[v] != v {
		up[v] = up[up[v]]
		v = up[v]
	}
	return v
}

// rootLevel numbers the workers of a component and builds its rows: each
// task's group becomes one mask over the numbering, OR-ed into its members'
// rows. The groups and each worker's tasks are the last Components call's.
//
//datawa:hotpath
func (b *treeBuilder) rootLevel(comp []int, sets []WorkerSets, taskOff, byTask []int32) level {
	p0 := len(b.pos)
	for i, v := range comp {
		b.local[v] = int32(i)
		b.pos = append(b.pos, int32(v))
	}
	// A group of two or more is built by its first member, which is in comp
	// with all the others.
	b.gAt, b.gWords = b.gAt[:0], b.gWords[:0]
	for _, v := range comp {
		for _, t := range sets[v].Index {
			group := byTask[taskOff[t]:taskOff[t+1]]
			if len(group) < 2 || int(group[0]) != v {
				continue
			}
			from := len(b.gAt)
			for _, u := range group {
				b.gAt, b.gWords = graphutil.AppendBit(b.gAt, b.gWords, from, b.local[u])
			}
			b.group[t] = [2]int32{int32(from), int32(len(b.gAt))}
		}
	}
	words := (len(comp) + 63) >> 6
	b.acc = slices.Grow(b.acc[:0], words)[:words]
	clear(b.acc)
	b.used = slices.Grow(b.used[:0], (words+63)>>6)[:(words+63)>>6]
	clear(b.used)
	o0, a0 := len(b.offs), len(b.at)
	b.offs = append(b.offs, 0)
	for i, v := range comp {
		for _, t := range sets[v].Index {
			if taskOff[t+1]-taskOff[t] < 2 {
				continue
			}
			span := b.group[t]
			for k := span[0]; k < span[1]; k++ {
				w := b.gAt[k]
				b.used[w>>6] |= 1 << uint(w&63)
				b.acc[w] |= b.gWords[k]
			}
		}
		b.acc[i>>6] &^= 1 << uint(i&63) // no self-loop
		for j, x := range b.used {
			for ; x != 0; x &= x - 1 {
				w := j<<6 + bits.TrailingZeros64(x)
				if y := b.acc[w]; y != 0 {
					b.at, b.words = append(b.at, int32(w)), append(b.words, y)
				}
				b.acc[w] = 0
			}
			b.used[j] = 0
		}
		b.offs = append(b.offs, int32(len(b.at)-a0))
	}
	return b.level(p0, o0, a0)
}

// level returns the level laid out in the stacks from the given marks on.
func (b *treeBuilder) level(p0, o0, a0 int) level {
	return level{
		pos: b.pos[p0:len(b.pos):len(b.pos)],
		rows: graphutil.Rows{
			Offs:  b.offs[o0:len(b.offs):len(b.offs)],
			At:    b.at[a0:len(b.at):len(b.at)],
			Words: b.words[a0:len(b.words):len(b.words)],
		},
	}
}

// build applies the RTC algorithm (Section IV-A.4) to one connected level of
// three or more workers: partition into maximal cliques via MCS on the
// chordal completion, install the clique whose removal yields the most
// components as the root, and recurse on each remaining component.
func (b *treeBuilder) build(workers []*core.Worker, lv level) *TreeNode {
	m := len(lv.pos)
	cliques := b.ch.CliquesOfRows(&lv.rows)
	best := b.choose(&lv, cliques)
	// The clique lists live in the chordal workspace, which the children's
	// builds reuse: install the winner before recursing.
	from := len(b.iarena)
	for _, v := range cliques[best] {
		b.iarena = append(b.iarena, lv.pos[v])
	}
	node := b.newNode(workers, from)

	b.cut(m, cliques[best])
	b.clique = slices.Grow(b.clique[:0], len(b.open))[:len(b.open)]
	for j, x := range b.open {
		b.clique[j] = ^x
	}
	b.label = slices.Grow(b.label[:0], m)[:m]
	for v := range b.label {
		b.label[v] = -1
	}
	count := b.walk(&lv.rows, true)
	p0, o0, a0, l0 := len(b.pos), len(b.offs), len(b.at), len(b.levels)
	b.children(&lv, count)
	for c := l0; c < l0+count; c++ {
		child := b.levels[c]
		if len(child.pos) > 2 {
			node.Children = append(node.Children, b.build(workers, child))
			continue
		}
		from := len(b.iarena)
		b.iarena = append(b.iarena, child.pos...)
		node.Children = append(node.Children, b.newNode(workers, from))
	}
	b.pos, b.offs, b.at, b.words, b.levels = b.pos[:p0], b.offs[:o0], b.at[:a0], b.words[:a0], b.levels[:l0]
	return node
}

// choose returns the index of the clique X′ whose removal leaves the most
// components; ties prefer the larger clique (smaller residual work), then the
// earlier one. A probe only counts the components; they are laid out for the
// winner alone.
//
//datawa:hotpath
func (b *treeBuilder) choose(lv *level, cliques [][]int) int {
	best, most := -1, -1
	for ci, clique := range cliques {
		b.cut(len(lv.pos), clique)
		if count := b.walk(&lv.rows, false); count > most || count == most && len(clique) > len(cliques[best]) {
			best, most = ci, count
		}
	}
	return best
}

// cut sets open to the m vertices of a level without the clique's.
//
//datawa:hotpath
func (b *treeBuilder) cut(m int, clique []int) {
	words := (m + 63) >> 6
	b.open = slices.Grow(b.open[:0], words)[:words]
	for j := range b.open {
		b.open[j] = ^uint64(0)
	}
	if r := m & 63; r != 0 {
		b.open[words-1] = 1<<uint(r) - 1
	}
	for _, v := range clique {
		b.open[v>>6] &^= 1 << uint(v&63)
	}
}

// walk counts the components of rows' graph among the vertices in open,
// emptying it: each component is seeded from the lowest bit left and grown by
// word masks, a row's word at a time. With collect set it also labels every
// vertex it walks with its component, numbered from 0 in seed order — so by
// smallest vertex.
//
//datawa:hotpath
func (b *treeBuilder) walk(rows *graphutil.Rows, collect bool) int {
	count := 0
	open := b.open
	for j := range open {
		for open[j] != 0 {
			s := int32(j<<6 + bits.TrailingZeros64(open[j]))
			open[j] &= open[j] - 1
			b.queue = append(b.queue[:0], s)
			for head := 0; head < len(b.queue); head++ {
				v := b.queue[head]
				if collect {
					b.label[v] = int32(count)
				}
				for k := rows.Offs[v]; k < rows.Offs[v+1]; k++ {
					w := rows.At[k]
					nb := rows.Words[k] & open[w]
					open[w] &^= nb
					for ; nb != 0; nb &= nb - 1 {
						b.queue = append(b.queue, w<<6+int32(bits.TrailingZeros64(nb)))
					}
				}
			}
			count++
		}
	}
	return count
}

// children lays out the count components walk labelled as child levels on
// the stacks, in component order: each component ascending, renumbered
// 0..k-1 in that order, with its rows — the parent's rows of its members
// without the clique, which leaves exactly the component — when it has more
// than two members.
//
//datawa:hotpath
func (b *treeBuilder) children(lv *level, count int) {
	m := len(lv.pos)
	b.start = slices.Grow(b.start[:0], count+1)[:count+1]
	clear(b.start)
	for _, c := range b.label {
		if c >= 0 {
			b.start[c+1]++
		}
	}
	for c := 1; c <= count; c++ {
		b.start[c] += b.start[c-1]
	}
	b.members = slices.Grow(b.members[:0], int(b.start[count]))[:b.start[count]]
	for v, c := range b.label {
		if c >= 0 {
			b.members[b.start[c]] = int32(v)
			b.start[c]++
		}
	}
	// The scatter advanced every start to its component's end, which is where
	// the next component starts.
	copy(b.start[1:], b.start)
	b.start[0] = 0
	b.rank = slices.Grow(b.rank[:0], m)[:m]
	r := &lv.rows
	for c := 0; c < count; c++ {
		members := b.members[b.start[c]:b.start[c+1]]
		p0, o0, a0 := len(b.pos), len(b.offs), len(b.at)
		for j, v := range members {
			b.rank[v] = int32(j)
			b.pos = append(b.pos, lv.pos[v])
		}
		if len(members) > 2 {
			b.offs = append(b.offs, 0)
			for _, v := range members {
				from := len(b.at)
				for k := r.Offs[v]; k < r.Offs[v+1]; k++ {
					for x := r.Words[k] &^ b.clique[r.At[k]]; x != 0; x &= x - 1 {
						// Ranks ascend with the vertices of one component:
						// the row comes out ascending.
						b.at, b.words = graphutil.AppendBit(b.at, b.words, from, b.rank[r.At[k]<<6+int32(bits.TrailingZeros64(x))])
					}
				}
				b.offs = append(b.offs, int32(len(b.at)-a0))
			}
		}
		b.levels = append(b.levels, b.level(p0, o0, a0))
	}
}
