// Package graphutil provides the undirected-graph algorithms behind Worker
// Dependency Separation (Section IV-A): connected components, Maximum
// Cardinality Search (Tarjan & Yannakakis 1984), chordal completion via the
// elimination game, and the maximal cliques of the completion. Vertices are
// dense ints in [0, N).
//
// No hash maps and no edge pairs. A graph is held as sparse bit rows (Rows):
// a vertex keeps only the nonzero words of its adjacency row. The planner
// builds its rows itself; a Graph builds them from groups of vertices that are
// each a clique (ResetGroups), when first queried. The chordal pipeline runs
// on a Chordal workspace — the vertex subset at hand renumbered 0..m-1 with
// its induced subgraph as an m×m bit matrix, loaded from rows — so "make the
// later neighbours a clique" is a few word-wide ORs per neighbour.
package graphutil

import (
	"fmt"
	"math/bits"
	"slices"
)

// Graph is a simple undirected graph with a fixed vertex count, given as
// groups of vertices that are each a clique and held as sparse bit rows.
// Nothing is laid out until it is asked for: ResetGroups keeps a reference to
// its groups, and the first query after it builds the rows, so a graph that
// is never queried costs nothing past its ResetGroups, and an edge that
// several groups share costs no more than one. A Graph is safe for concurrent
// queries once a query has run after the last ResetGroups.
type Graph struct {
	n int
	// The groups of the last ResetGroups, not yet laid out: group t is
	// members[groupOffs[t]:groupOffs[t+1]]. Both are the caller's slices.
	groupOffs, members []int32
	rows               Rows // over 0..n-1 once laid out; len(rows.Offs) is 0 before
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// ResetGroups reinitializes g to the graph on n vertices in which the
// vertices of each group are pairwise adjacent: group t is
// members[offs[t]:offs[t+1]], in any order, a vertex listed twice counting
// once. g keeps the two slices and reads them on its first query, so the
// caller must leave them unchanged until then, or until the next ResetGroups.
// The rows reuse the storage of earlier generations, and the zero Graph
// value is valid input.
func (g *Graph) ResetGroups(n int, offs, members []int32) {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	g.n, g.groupOffs, g.members = n, offs, members
	g.rows.Offs, g.rows.At, g.rows.Words = g.rows.Offs[:0], g.rows.At[:0], g.rows.Words[:0]
}

// laidOut returns g's rows, laying them out on the first query.
func (g *Graph) laidOut() *Rows {
	if len(g.rows.Offs) == 0 {
		g.layout()
	}
	return &g.rows
}

// layout builds the rows from the groups: vertex v's row is the union of the
// groups that hold v, less v. A counting sort lists each vertex's groups; a
// row is accumulated dense, with one bit per touched word, and its nonzero
// words appended ascending.
func (g *Graph) layout() {
	n, offs, members := g.n, g.groupOffs, g.members
	g.groupOffs, g.members = nil, nil
	start := make([]int32, n+1) // vertex v is in the groups in[start[v]:start[v+1]]
	for t := 0; t+1 < len(offs); t++ {
		for _, u := range members[offs[t]:offs[t+1]] {
			g.check(int(u))
			start[u+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	in := make([]int32, start[n])
	for t := 0; t+1 < len(offs); t++ {
		for _, u := range members[offs[t]:offs[t+1]] {
			in[start[u]] = int32(t)
			start[u]++
		}
	}
	// The fill pass advanced every offset to the next vertex's start.
	copy(start[1:], start[:n])
	start[0] = 0

	words := (n + 63) >> 6
	acc, used := make([]uint64, words), make([]uint64, (words+63)>>6)
	r := &g.rows
	r.Offs = append(r.Offs[:0], 0)
	for v := 0; v < n; v++ {
		for _, t := range in[start[v]:start[v+1]] {
			for _, u := range members[offs[t]:offs[t+1]] {
				acc[u>>6] |= 1 << uint(u&63)
				used[u>>12] |= 1 << uint(u>>6&63)
			}
		}
		acc[v>>6] &^= 1 << uint(v&63) // no self-loop
		for j, x := range used {
			for ; x != 0; x &= x - 1 {
				w := j<<6 + bits.TrailingZeros64(x)
				if y := acc[w]; y != 0 {
					r.At, r.Words = append(r.At, int32(w)), append(r.Words, y)
				}
				acc[w] = 0
			}
			used[j] = 0
		}
		r.Offs = append(r.Offs, int32(len(r.At)))
	}
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphutil: vertex %d out of range [0,%d)", v, g.n))
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	r := g.laidOut()
	k, ok := slices.BinarySearch(r.At[r.Offs[u]:r.Offs[u+1]], int32(v>>6))
	return ok && r.Words[int(r.Offs[u])+k]&(1<<uint(v&63)) != 0
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	n := 0
	for _, x := range g.laidOut().Words {
		n += bits.OnesCount64(x)
	}
	return n / 2
}

// Components returns the connected components over the vertices for which
// include(v) is true (all vertices when include is nil). Each component is
// sorted ascending and components are ordered by their smallest vertex.
func (g *Graph) Components(include func(int) bool) [][]int {
	r := g.laidOut()
	open := make([]uint64, (g.n+63)>>6) // included and not yet reached
	for v := 0; v < g.n; v++ {
		if include == nil || include(v) {
			open[v>>6] |= 1 << uint(v&63)
		}
	}
	var comps [][]int
	var queue []int
	// Seeding at the smallest open vertex yields the components ordered by
	// smallest vertex directly.
	for j := range open {
		for open[j] != 0 {
			s := j<<6 + bits.TrailingZeros64(open[j])
			open[j] &= open[j] - 1
			queue = append(queue[:0], s)
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for k := r.Offs[v]; k < r.Offs[v+1]; k++ {
					w := r.At[k]
					x := r.Words[k] & open[w]
					open[w] &^= x
					for ; x != 0; x &= x - 1 {
						queue = append(queue, int(w)<<6+bits.TrailingZeros64(x))
					}
				}
			}
			comp := slices.Clone(queue)
			slices.Sort(comp)
			comps = append(comps, comp)
		}
	}
	return comps
}

// FillIn runs the elimination game on the subgraph induced by vertices,
// using the reverse MCS visit order as the elimination order. It returns
// the chordal completion H (on the same vertex ids, containing only edges
// among the subset plus fill edges) and the perfect elimination ordering of
// H (first eliminated first).
func (g *Graph) FillIn(vertices []int) (*Graph, []int) {
	var c Chordal
	c.load(g, vertices)
	c.mcs()
	c.eliminateAlong()
	peo := make([]int, len(c.peo))
	for i, v := range c.peo {
		peo[i] = c.verts[v]
	}
	// The filled bit rows are H's, renumbered back to vertex ids, which
	// keeps them ascending.
	offs, at, words := make([]int32, 1, g.n+1), []int32(nil), []uint64(nil)
	i := 0
	for v := 0; v < g.n; v++ {
		if i < len(c.verts) && c.verts[i] == v {
			from := len(at)
			for j, x := range c.row(c.rows, i) {
				for ; x != 0; x &= x - 1 {
					at, words = AppendBit(at, words, from, int32(c.verts[j<<6+bits.TrailingZeros64(x)]))
				}
			}
			i++
		}
		offs = append(offs, int32(len(at)))
	}
	return &Graph{n: g.n, rows: Rows{Offs: offs, At: at, Words: words}}, peo
}

// Chordal is the reusable workspace of the chordal pipeline — MCS, the
// elimination game, maximal-clique extraction — over one vertex subset at a
// time. The subset is renumbered 0..m-1 in ascending vertex order (so
// "smallest vertex id" tie-breaks are "smallest local index") and its induced
// subgraph held as m rows of ⌈m/64⌉ words: the cost of a call follows the
// subset, never the graph it was cut from. The zero value is ready to use; a
// Chordal serves one goroutine at a time.
type Chordal struct {
	verts []int // local index → vertex, ascending
	words int   // words per bit row
	rows  []uint64
	// cand row i is {v} ∪ {later neighbours of v} for the i-th eliminated v;
	// maximal[i] tells whether no other candidate contains it.
	cand    []uint64
	maximal []bool
	elim    []uint64 // the eliminated set, one bit row
	pos     []int32  // local index → position in peo
	weight  []int32
	// MCS keeps its unvisited vertices in one bit row per weight (bucket),
	// with count[w] the vertices in row w, and all of them in left.
	bucket []uint64
	count  []int32
	left   []uint64
	order  []int32 // MCS visit order, local indices
	peo    []int32 // elimination order, local indices

	flat    []int // clique storage handed out by maximalCliques
	cliques [][]int
}

// Rows is a graph on the vertices 0..m-1, m = len(Offs)-1, held as sparse
// bit rows: row v keeps only its nonzero words, Words[k] for k in
// Offs[v]:Offs[v+1], with At[k] the word's index within the row, ascending. A
// vertex costs min(degree, ⌈m/64⌉) words. The rows must be symmetric and
// hold no self-loop.
type Rows struct {
	Offs  []int32
	At    []int32
	Words []uint64
}

// AppendBit sets bit i of a sparse row being appended to at/words from
// position from on, i no lower than any bit already set: the step that lays
// out a row of Rows one vertex at a time.
func AppendBit(at []int32, words []uint64, from int, i int32) ([]int32, []uint64) {
	if n := len(at); n > from && at[n-1] == i>>6 {
		words[n-1] |= 1 << uint(i&63)
		return at, words
	}
	return append(at, i>>6), append(words, 1<<uint(i&63))
}

// CliquesOfRows returns the maximal cliques of the chordal completion of r,
// the completion FillIn returns, each ascending, ordered by smallest vertex.
// Each candidate clique is {v} ∪ {later neighbours of v} along the
// elimination order; the ones another candidate contains are dropped. The
// result is owned by the workspace and valid until its next call.
func (c *Chordal) CliquesOfRows(r *Rows) [][]int {
	c.loadRows(r)
	c.mcs()
	c.eliminateAlong()
	return c.maximalCliques()
}

// loadRows fills the bit matrix from sparse rows, each vertex its own local
// index.
//
//datawa:hotpath
func (c *Chordal) loadRows(r *Rows) {
	m := len(r.Offs) - 1
	c.verts = c.verts[:0]
	for v := 0; v < m; v++ {
		c.verts = append(c.verts, v)
	}
	c.words = (m + 63) / 64
	c.rows = zeroed(c.rows, m*c.words)
	for v := 0; v < m; v++ {
		row := c.row(c.rows, v)
		for k := r.Offs[v]; k < r.Offs[v+1]; k++ {
			row[r.At[k]] = r.Words[k]
		}
	}
}

// load renumbers the subset and fills the bit matrix with the subgraph of g
// it induces: FillIn's path, which the planner does not take.
func (c *Chordal) load(g *Graph, vertices []int) {
	c.verts = append(c.verts[:0], vertices...)
	slices.Sort(c.verts)
	c.verts = slices.Compact(c.verts)
	c.words = (len(c.verts) + 63) / 64
	c.rows = zeroed(c.rows, len(c.verts)*c.words)
	r := g.laidOut()
	for i, v := range c.verts {
		g.check(v)
		row := c.row(c.rows, i)
		for k := r.Offs[v]; k < r.Offs[v+1]; k++ {
			for x := r.Words[k]; x != 0; x &= x - 1 {
				if j, in := slices.BinarySearch(c.verts, int(r.At[k])<<6+bits.TrailingZeros64(x)); in {
					row[j>>6] |= 1 << uint(j&63)
				}
			}
		}
	}
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func (c *Chordal) row(m []uint64, i int) []uint64 { return m[i*c.words : (i+1)*c.words] }

// mcs fills order with the Maximum Cardinality Search visit order of the
// loaded subgraph and peo with its reverse. The next vertex visited is the
// unvisited one with the most visited neighbours, ties to the smallest index:
// the lowest bit of the heaviest nonempty bucket. A bucket is zeroed when a
// weight first reaches it, so a call costs its graph's largest degree in
// rows, not m.
//
//datawa:hotpath
func (c *Chordal) mcs() {
	m, words := len(c.verts), c.words
	c.weight = zeroed(c.weight, m)
	c.count = zeroed(c.count, m+1)
	c.bucket = slices.Grow(c.bucket[:0], m*words)[:m*words]
	c.left = slices.Grow(c.left[:0], words)[:words]
	for j := range c.left {
		c.left[j] = ^uint64(0)
	}
	if r := m & 63; r != 0 {
		c.left[words-1] = 1<<uint(r) - 1
	}
	copy(c.row(c.bucket, 0), c.left)
	c.count[0] = int32(m)
	top, heavy := 0, 0 // the heaviest bucket zeroed, the heaviest nonempty
	c.order = c.order[:0]
	for len(c.order) < m {
		for c.count[heavy] == 0 {
			heavy--
		}
		b := c.row(c.bucket, heavy)
		j := 0
		for b[j] == 0 {
			j++
		}
		v := j<<6 + bits.TrailingZeros64(b[j])
		b[j] &= b[j] - 1
		c.count[heavy]--
		c.left[j] &^= 1 << uint(v&63)
		c.order = append(c.order, int32(v))
		for k, x := range c.row(c.rows, v) {
			for x &= c.left[k]; x != 0; x &= x - 1 {
				u := k<<6 + bits.TrailingZeros64(x)
				w, bit := int(c.weight[u]), x&-x
				c.bucket[w*words+k] &^= bit
				c.count[w]--
				if w++; w > top {
					top = w
					clear(c.row(c.bucket, w))
				}
				c.bucket[w*words+k] |= bit
				c.count[w]++
				c.weight[u] = int32(w)
				heavy = max(heavy, w)
			}
		}
	}
	c.peo = slices.Grow(c.peo[:0], m)[:m]
	for i, v := range c.order {
		c.peo[m-1-i] = v
	}
}

// eliminateAlong plays the elimination game along peo, turning each vertex's
// not-yet-eliminated neighbours into a clique (in place, in rows) and
// recording {v} ∪ those neighbours as v's candidate clique. A candidate can
// only be contained in the candidate of an earlier-eliminated neighbour — a
// containing set must hold v, and every candidate's members other than its
// own vertex come later — so maximality is settled against exactly those.
//
//datawa:hotpath
func (c *Chordal) eliminateAlong() {
	m := len(c.peo)
	c.cand = zeroed(c.cand, m*c.words)
	c.maximal = zeroed(c.maximal, m)
	c.elim = zeroed(c.elim, c.words)
	c.pos = slices.Grow(c.pos[:0], len(c.verts))[:len(c.verts)]
	for i, v := range c.peo {
		c.pos[v] = int32(i)
	}
	for i, v32 := range c.peo {
		v := int(v32)
		row, later := c.row(c.rows, v), c.row(c.cand, i)
		for j := range later {
			later[j] = row[j] &^ c.elim[j]
		}
		for j, x := range later {
			for ; x != 0; x &= x - 1 {
				u := j<<6 + bits.TrailingZeros64(x)
				ru := c.row(c.rows, u)
				for k := range ru {
					ru[k] |= later[k]
				}
				ru[u>>6] &^= 1 << uint(u&63)
			}
		}
		later[v>>6] |= 1 << uint(v&63)
		c.maximal[i] = true
	earlier:
		for j := range row {
			for x := row[j] & c.elim[j]; x != 0; x &= x - 1 {
				if subsetBits(later, c.row(c.cand, int(c.pos[j<<6+bits.TrailingZeros64(x)]))) {
					c.maximal[i] = false
					break earlier
				}
			}
		}
		c.elim[v>>6] |= 1 << uint(v&63)
	}
}

// subsetBits reports whether bit row a ⊆ bit row b.
//
//datawa:hotpath
func subsetBits(a, b []uint64) bool {
	for j := range a {
		if a[j]&^b[j] != 0 {
			return false
		}
	}
	return true
}

// maximalCliques materializes the maximal candidates as ascending vertex
// lists, ordered by smallest vertex.
func (c *Chordal) maximalCliques() [][]int {
	c.flat = c.flat[:0]
	c.cliques = c.cliques[:0]
	for i, keep := range c.maximal {
		if !keep {
			continue
		}
		start := len(c.flat)
		for j, x := range c.row(c.cand, i) {
			for ; x != 0; x &= x - 1 {
				c.flat = append(c.flat, c.verts[j<<6+bits.TrailingZeros64(x)])
			}
		}
		c.cliques = append(c.cliques, c.flat[start:len(c.flat):len(c.flat)])
	}
	// Cliques sharing their smallest vertex tie here, and the sort is not
	// stable: the order it leaves them in is pdqsort's, and the RTC
	// construction's clique choice breaks its own ties by position in this
	// list, so which sort runs is part of the contract (the tree pins hold
	// it). slices.SortFunc and sort.Slice run the one pdqsort the standard
	// library generates for both, so either leaves ties alike; this one
	// allocates nothing.
	slices.SortFunc(c.cliques, func(a, b []int) int { return a[0] - b[0] })
	return c.cliques
}
