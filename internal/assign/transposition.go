package assign

import (
	"math/bits"
	"slices"

	"repro/internal/wds"
)

// Every tree is searched over one layout. Its universe — the tasks its workers
// reach, in pool order — is numbered from 0, and position p is bit p&63 of
// word p>>6 of a row relWords words wide. Availability is one such row, and
// each sequence of Q_w is laid out once per tree as the row of its tasks,
// beside its value, so the search, its greedy completion and DFSearch_TVF test,
// take and give back tasks a word at a time and never walk a sequence's tasks.
//
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
// word, so that a key is that word masked by the row's relevance bits; not
// trees of one or two workers (nothing to share), Collect mode (every call
// emits samples) or DFSearch_TVF (no backtracking, no repeats). Fixed keys of
// four words for wider trees slowed the workloads with none (docs/BENCHMARKS.md,
// "Dead ends"), and on the crowds that have them the node budget is gone
// before repeats matter.

// tableMinWorkers is the smallest tree the table is switched on for.
const tableMinWorkers = 3

// useTable reports whether the tree under root, laid out, is searched with the
// transposition table.
func (r *searchRun) useTable(root *wds.TreeNode) bool {
	return r.model == nil && !r.collect && r.relWords == 1 && root.Size() >= tableMinWorkers
}

// layout lays out the tree under root over a universe of the given size, every
// task free: relWords, the rows and the sequences, sized to the tree.
func (r *searchRun) layout(root *wds.TreeNode, universe int) {
	nodes, rows, seqs := r.measure(root)
	w := (universe + 63) / 64
	r.relWords = w
	r.avail = slices.Grow(r.avail[:0], w)[:w]
	for i := range r.avail {
		r.avail[i] = ^uint64(0) // the bits past the universe are never read
	}
	r.relOff = slices.Grow(r.relOff[:0], nodes)
	r.relMost = slices.Grow(r.relMost[:0], rows)
	r.rel = slices.Grow(r.rel[:0], rows*w)[:rows*w]
	r.reachBits = slices.Grow(r.reachBits[:0], rows*w)[:rows*w]
	r.seqs = slices.Grow(r.seqs[:0], rows)[:rows]
	r.rowOf = slices.Grow(r.rowOf[:0], len(r.sep.Workers))[:len(r.sep.Workers)]
	r.words.reset(seqs * w)
	r.vals.reset(seqs)
	r.layoutRows(root)
}

// measure counts the nodes, rows and sequences of the subtree under n: one
// more row per node than it has workers.
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

// layoutRows lays out the rows of the subtree under n in pre-order and returns
// the position of its row 0. The node's last row, j = len(n.Index), holds what
// its subtrees reach and take, and no worker; each row before adds its
// worker's reachable set to the row after it, and its longest sequence (Q_w's
// first: wds sorts it longest first) to what that can take. With the table on
// a row's bits are what a key masks availability with, the row's position
// doubling as the key's (node, j). A worker's sequences are the bits of
// Masks[k] sent through its tree-local reach positions.
func (r *searchRun) layoutRows(n *wds.TreeNode) int {
	w, off := r.relWords, len(r.relMost)
	end := off + len(n.Index)
	r.relOff = append(r.relOff, int32(off)) // lands at n.ID: ids are pre-order, as is this walk
	r.relMost = r.relMost[:end+1]
	r.relMost[end] = 0
	clear(r.rel[end*w : (end+1)*w])
	for _, child := range n.Children {
		c := r.layoutRows(child)
		for i := range w {
			r.rel[end*w+i] |= r.rel[c*w+i]
		}
		r.relMost[end] += r.relMost[c]
	}
	for j := len(n.Index) - 1; j >= 0; j-- {
		wi, row := n.Index[j], off+j
		set, local := &r.sep.Sets[wi], r.reachLocal[r.reachOff[wi]:r.reachOff[wi+1]]
		reach := r.reachBits[row*w : (row+1)*w]
		clear(reach)
		for _, p := range local {
			reach[p>>6] |= 1 << uint(p&63)
		}
		for i := range w {
			r.rel[row*w+i] = r.rel[(row+1)*w+i] | reach[i]
		}
		r.relMost[row] = r.relMost[row+1]
		if len(set.Masks) > 0 {
			r.relMost[row] += int32(bits.OnesCount64(set.Masks[0]))
		}
		q := seqRow{r.words.take(len(set.Masks) * w), r.vals.take(len(set.Masks))}
		clear(q.words)
		for k, mask := range set.Masks {
			for m := mask; m != 0; m &= m - 1 {
				p := local[bits.TrailingZeros64(m)]
				q.words[int(p>>6)*len(q.vals)+k] |= 1 << uint(p&63)
			}
			q.vals[k] = r.value(wi, set, k)
		}
		r.seqs[row], r.rowOf[wi] = q, int32(row)
	}
	return off
}

// seqRow is one worker's Q_w as laid out, word by word: word i of the tasks of
// sequence k is words[i*len(vals)+k], and the sequence is worth vals[k]. Word
// 0 of every sequence comes first, so that the usable test of a tree of one
// word is a walk over consecutive words.
type seqRow struct {
	words []uint64
	vals  []float64
}

// arena is the storage behind a tree's seqRows. A planner meets a flash crowd
// as a run of trees each larger than the last, and one array regrown to fit
// each would allocate their sum; the arena keeps the chunks it has and adds one
// for the shortfall only, so over its life it allocates the largest tree once,
// and in steady state nothing.
type arena[T any] struct {
	chunks      [][]T
	chunk, used int // the next row starts at used in chunk chunk
	rest        int // what the tree has still to place: what a new chunk has to hold
}

// reset frees every row handed out, for a tree of the given size.
func (a *arena[T]) reset(size int) { a.chunk, a.used, a.rest = 0, 0, size }

// take returns a row of n elements.
func (a *arena[T]) take(n int) []T {
	for a.chunk < len(a.chunks) && len(a.chunks[a.chunk])-a.used < n {
		a.chunk, a.used = a.chunk+1, 0
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, a.rest))
	}
	from := a.used
	a.used, a.rest = a.used+n, a.rest-n
	return a.chunks[a.chunk][from:a.used]
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
	on    bool         // whether the current tree is searched with the table (useTable)
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
