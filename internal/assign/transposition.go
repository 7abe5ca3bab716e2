package assign

import (
	"math/bits"
	"slices"

	"repro/internal/wds"
)

// The exact search re-solves subproblems: search(n, j) reads availability only
// through the tasks the workers n.Index[j:] and the subtrees below n can
// reach, and a tree search arrives at the same (n, j) with the same
// availability of those tasks again and again — whenever the workers before
// differ only in tasks this suffix cannot see. It is the paper's
// sibling-independence argument (Section IV-A.4) applied one level down: what
// the suffix cannot reach cannot change its optimum, its plan, or the number of
// calls the walk makes under it. A transposition table keyed by that
// availability answers the repeats.
//
// The table serves one tree at a time and only trees whose universe fits one
// availability word; wider trees, trees of one or two workers (nothing to
// share), Collect mode (every call emits samples) and DFSearch_TVF (no
// backtracking, no repeats) take the plain walk.

// memoMinWorkers is the smallest tree the table is switched on for.
const memoMinWorkers = 3

// useMemo reports whether the tree under root, over a universe of the given
// size, is searched with the transposition table.
func (r *searchRun) useMemo(root *wds.TreeNode, universe int) bool {
	return r.model == nil && !r.collect && universe <= 64 && root.Size() >= memoMinWorkers
}

// buildRelevance lays out one row of r.rel per (node, j) of the subtree under
// n — row r.relOff[n.ID]+j is the set of tasks, as universe bits, reachable
// from n.Index[j:] and every subtree below n — and returns row 0. Rows are
// what a table key masks availability with, and their positions double as the
// key's (node, j).
func (r *searchRun) buildRelevance(n *wds.TreeNode) uint64 {
	off := len(r.rel)
	r.relOff = append(r.relOff, int32(off)) // lands at n.ID: ids are pre-order, as is this walk
	r.rel = slices.Grow(r.rel, len(n.Index)+1)[:off+len(n.Index)+1]
	var m uint64
	for _, child := range n.Children {
		m |= r.buildRelevance(child)
	}
	r.rel[off+len(n.Index)] = m
	for j := len(n.Index) - 1; j >= 0; j-- {
		_, local := r.reach(n.Index[j])
		m |= universeMask(local)
		r.rel[off+j] = m
	}
	return m
}

// universeMask gathers tree-local task positions into one universe word.
//
//datawa:hotpath
func universeMask(local []int32) uint64 {
	var m uint64
	for _, p := range local {
		m |= 1 << uint(p)
	}
	return m
}

// transEntry is one solved subproblem: the value search returned, the plan it
// left on the stack and the nodes it counted.
type transEntry struct {
	word  uint64 // availability of the row's tasks
	value float64
	row   int32  // position in searchRun.rel: the (node, j) searched
	gen   uint32 // the tree that stored the entry; any other value is a free slot
	nodes int32
	from  int32 // the plan is transTable.plans[from:to]
	to    int32
}

// transTable is an open-addressed (linear probing) table owned by a searchRun.
// Trees are told apart by a generation stamp instead of clearing, and the
// slots and the plan arena are kept, so in steady state a tree search
// allocates nothing here. A tree stores at most one entry per node it
// expanded, which bounds the table by MaxNodes entries however many trees the
// run serves.
type transTable struct {
	slots []transEntry // power-of-two length, at most half full
	shift uint         // 64 − log2(len(slots))
	gen   uint32
	used  int
	plans []choice
}

// reset empties the table for a new tree.
func (t *transTable) reset() {
	if t.slots == nil {
		t.grow()
	}
	t.used, t.plans = 0, t.plans[:0]
	t.gen++
	if t.gen == 0 { // wrapped: stamps of 2³² trees ago would read as current
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns where (row, word) is or would be stored.
//
//datawa:hotpath
func (t *transTable) slot(row int32, word uint64) *transEntry {
	mask := len(t.slots) - 1
	// Availability words are sparse and differ in few bits: multiply so every
	// input bit reaches the high bits the index is cut from.
	i := int(((word ^ uint64(row)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9) >> t.shift)
	for {
		e := &t.slots[i]
		if e.gen != t.gen || e.row == row && e.word == word {
			return e
		}
		i = (i + 1) & mask
	}
}

// lookup returns the entry stored for (row, word), or nil. The pointer is good
// until the next insert.
//
//datawa:hotpath
func (t *transTable) lookup(row int32, word uint64) *transEntry {
	if e := t.slot(row, word); e.gen == t.gen {
		return e
	}
	return nil
}

// insert stores a subproblem not yet in the table.
//
//datawa:hotpath
func (t *transTable) insert(row int32, word uint64, value float64, nodes int, plan []choice) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	from := len(t.plans)
	t.plans = append(t.plans, plan...)
	*t.slot(row, word) = transEntry{word: word, value: value, row: row, gen: t.gen,
		nodes: int32(nodes), from: int32(from), to: int32(len(t.plans))}
	t.used++
}

// grow doubles the table, carrying the current tree's entries over.
func (t *transTable) grow() {
	old := t.slots
	n := max(256, 2*len(old))
	t.slots = make([]transEntry, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if e := &old[i]; e.gen == t.gen {
			*t.slot(e.row, e.word) = *e
		}
	}
}
