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
//
// On the trees it serves that word is the search's availability, not a copy
// kept for the key: each sequence is laid out once per tree as the universe
// word of its tasks, so the search and its greedy completion (expandWords,
// greedyFillWords) test, take and give back tasks a word at a time and never
// touch the plain walk's availability bitset, which a sequence's tasks are
// scattered over.

// memoMinWorkers is the smallest tree the table is switched on for.
const memoMinWorkers = 3

// useMemo reports whether the tree under root, over a universe of the given
// size, is searched on one availability word with the transposition table.
func (r *searchRun) useMemo(root *wds.TreeNode, universe int) bool {
	return r.model == nil && !r.collect && universe <= 64 && root.Size() >= memoMinWorkers
}

// layout lays out the per-row scratch of a memo tree, sized to the tree: the
// relevance rows, one word each, and one more row per node than it has
// workers; one word and one value per sequence.
func (r *searchRun) layout(root *wds.TreeNode) {
	rows, seqs := r.layoutRel(root, 1)
	r.reachWord = slices.Grow(r.reachWord[:0], rows)[:rows]
	r.seqs = slices.Grow(r.seqs[:0], rows)[:rows]
	r.arena.reset(seqs)
	r.layoutSeqs(root)
}

// measure counts the nodes, rows and sequences of the subtree under n.
func (r *searchRun) measure(n *wds.TreeNode) (nodes, rows, seqs int) {
	nodes, rows = 1, len(n.Index)+1
	for _, wi := range n.Index {
		seqs += len(r.sep.Sets[wi].Masks)
	}
	for _, child := range n.Children {
		cn, cr, cs := r.measure(child)
		nodes, rows, seqs = nodes+cn, rows+cr, seqs+cs
	}
	return nodes, rows, seqs
}

// layoutRel lays out the relevance rows of the tree under root, words wide,
// and returns its row and sequence counts.
func (r *searchRun) layoutRel(root *wds.TreeNode, words int) (rows, seqs int) {
	nodes, rows, seqs := r.measure(root)
	r.relWords = words
	r.relOff = slices.Grow(r.relOff[:0], nodes)
	r.rel = slices.Grow(r.rel[:0], rows*words)
	r.relMost = slices.Grow(r.relMost[:0], rows)
	r.relRows(root)
	return rows, seqs
}

// relRows lays out the relevance rows of the subtree under n in pre-order and
// returns the position of its row 0. The node's last row, j = len(n.Index),
// holds what its subtrees reach and take; each row before adds its worker's
// reachable set, as universe bits, to the row after it, and its longest
// sequence (Q_w's first: wds sorts it longest first) to what that can take. On
// the word path a row's bits are what a table key masks availability with, the
// row's position doubling as the key's (node, j).
func (r *searchRun) relRows(n *wds.TreeNode) int {
	w, off := r.relWords, len(r.rel)/r.relWords
	end := off + len(n.Index)
	r.relOff = append(r.relOff, int32(off)) // lands at n.ID: ids are pre-order, as is this walk
	r.rel = slices.Grow(r.rel, (end+1)*w-len(r.rel))[:(end+1)*w]
	r.relMost = slices.Grow(r.relMost, end+1-len(r.relMost))[:end+1]
	clear(r.rel[off*w:])
	clear(r.relMost[off:])
	for _, child := range n.Children {
		c := r.relRows(child)
		for i := range w {
			r.rel[end*w+i] |= r.rel[c*w+i]
		}
		r.relMost[end] += r.relMost[c]
	}
	for j := len(n.Index) - 1; j >= 0; j-- {
		row := r.rel[(off+j)*w : (off+j+1)*w]
		copy(row, r.rel[(off+j+1)*w:])
		set, local := r.reach(n.Index[j])
		r.relMost[off+j] = r.relMost[off+j+1]
		if len(set.Masks) > 0 {
			r.relMost[off+j] += int32(bits.OnesCount64(set.Masks[0]))
		}
		for _, p := range local {
			row[p>>6] |= 1 << uint(p&63)
		}
	}
	return off
}

// layoutSeqs lays out the worker rows of the subtree under n, j < len(n.Index):
// the reach word of worker n.Index[j], and its sequences in Q_w order as
// universe words (the bits of Masks[k] sent through the worker's tree-local
// reach positions) beside their value. A node's last row holds no worker
// and nothing reads those two of it.
func (r *searchRun) layoutSeqs(n *wds.TreeNode) {
	off := r.relOff[n.ID]
	for j, wi := range n.Index {
		set, local := r.reach(wi)
		r.reachWord[off+int32(j)] = universeMask(local)
		q := r.arena.take(len(set.Masks))
		for k, mask := range set.Masks {
			var word uint64
			for m := mask; m != 0; m &= m - 1 {
				word |= 1 << uint(local[bits.TrailingZeros64(m)])
			}
			q.words[k], q.vals[k] = word, r.value(wi, set, k)
		}
		r.seqs[off+int32(j)] = q
	}
	for _, child := range n.Children {
		r.layoutSeqs(child)
	}
}

// seqRow is one worker's Q_w on a memo tree: the tasks of sequence k as the
// universe word words[k], worth vals[k].
type seqRow struct {
	words []uint64
	vals  []float64
}

// seqArena is the storage behind a tree's seqRows. A planner meets a flash
// crowd as a run of trees each larger than the last, and one array regrown to
// fit each would allocate their sum; the arena keeps the chunks it has and adds
// one for the shortfall only, so over its life it allocates the largest tree
// once, and in steady state nothing.
type seqArena struct {
	words       [][]uint64
	vals        [][]float64
	chunk, used int // the next row starts at used in chunk chunk
	rest        int // sequences the tree has still to place: what a new chunk has to hold
}

// reset frees every row handed out, for a tree of the given sequence count.
func (a *seqArena) reset(seqs int) { a.chunk, a.used, a.rest = 0, 0, seqs }

// take returns a row of n sequences.
func (a *seqArena) take(n int) seqRow {
	for a.chunk < len(a.words) && len(a.words[a.chunk])-a.used < n {
		a.chunk, a.used = a.chunk+1, 0
	}
	if a.chunk == len(a.words) {
		a.words = append(a.words, make([]uint64, a.rest))
		a.vals = append(a.vals, make([]float64, a.rest))
	}
	from := a.used
	a.used, a.rest = a.used+n, a.rest-n
	return seqRow{a.words[a.chunk][from:a.used], a.vals[a.chunk][from:a.used]}
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
