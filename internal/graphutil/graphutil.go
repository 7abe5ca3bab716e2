// Package graphutil provides the undirected-graph algorithms behind Worker
// Dependency Separation (Section IV-A): connected components, Maximum
// Cardinality Search (Tarjan & Yannakakis 1984), chordal completion via the
// elimination game, maximal cliques of chordal graphs, and a chordality
// test. Vertices are dense ints in [0, N).
//
// No hash maps. A Graph answers queries from sorted adjacency in CSR form; it
// can be given its edges one pair at a time (AddEdge) or as groups of
// vertices that are each a clique (ResetGroups), which it expands into CSR
// only when first queried. Rows is a graph held as sparse bit rows, built by
// the caller without edge pairs. The chordal pipeline runs on a Chordal
// workspace — the vertex subset at hand renumbered 0..m-1 with its induced
// subgraph as an m×m bit matrix, loaded from Rows on the planner's path
// (CliquesOfRows) and from a Graph by the Graph helpers — so "make the later
// neighbours a clique" is a few word-wide ORs per neighbour.
package graphutil

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Graph is a simple undirected graph with a fixed vertex count: sorted,
// deduplicated adjacency in CSR form. Nothing is sorted until it is asked
// for. AddEdge buffers a pair, and ResetGroups keeps a reference to its
// groups; the first query after either expands the groups into pairs and
// sorts every buffered pair into the CSR arrays, so building a graph costs one
// sort however many duplicate edges the caller reports, and a graph that is
// never queried costs nothing past its Reset. A Graph is safe for concurrent
// queries once a query has run after the last AddEdge or ResetGroups.
type Graph struct {
	n    int
	offs []int32  // vertex v's neighbours are nbrs[offs[v]:offs[v+1]]; len n+1 once sealed
	nbrs []int32  // ascending within each vertex
	pend []uint64 // directed pairs u<<32|v added since the last seal, both directions
	tmp  []uint64 // rebuild's second sort buffer
	// The groups of the last ResetGroups, not yet expanded: group t is
	// members[groupOffs[t]:groupOffs[t+1]]. Both are the caller's slices.
	groupOffs, members []int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Reset reinitializes g to an empty graph on n vertices, reusing the storage
// of earlier generations — the zero-steady-state-allocation path for callers
// that rebuild a graph every planning instant. The zero Graph value is valid
// input.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	g.n = n
	g.offs = g.offs[:0]
	g.nbrs = g.nbrs[:0]
	g.pend = g.pend[:0]
	g.groupOffs, g.members = nil, nil
}

// ResetGroups reinitializes g, as Reset does, to the graph on n vertices in
// which the vertices of each group are pairwise adjacent: group t is
// members[offs[t]:offs[t+1]]. g keeps the two slices and reads them on its
// first query, so the caller must leave them unchanged until then, or until
// the next Reset or ResetGroups.
func (g *Graph) ResetGroups(n int, offs, members []int32) {
	g.Reset(n)
	g.groupOffs, g.members = offs, members
}

// AddEdge inserts the undirected edge {u, v}; self-loops are ignored and
// duplicates are free.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	g.pend = append(g.pend, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
}

// seal makes the CSR arrays current; a no-op unless groups or edges are
// buffered or the graph was just Reset.
func (g *Graph) seal() {
	if g.groupOffs != nil {
		g.expand()
	}
	if len(g.pend) != 0 || len(g.offs) != g.n+1 {
		g.rebuild()
	}
}

// expand buffers every pair of every group as an edge.
func (g *Graph) expand() {
	offs, members := g.groupOffs, g.members
	g.groupOffs, g.members = nil, nil
	for t := 0; t+1 < len(offs); t++ {
		group := members[offs[t]:offs[t+1]]
		for a, u := range group {
			for _, v := range group[a+1:] {
				g.AddEdge(int(u), int(v))
			}
		}
	}
}

// rebuild folds the buffered edges into the CSR arrays. The directed pairs
// (the sealed ones included, when there are any) are radix-sorted with the
// vertex id as the digit — a stable counting pass by target, then one by
// source — which leaves them in CSR order in O(pairs + n), duplicates
// adjacent.
func (g *Graph) rebuild() {
	for u := 0; u+1 < len(g.offs); u++ {
		for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
			g.pend = append(g.pend, uint64(u)<<32|uint64(v))
		}
	}
	src, dst := g.pend, slices.Grow(g.tmp[:0], len(g.pend))[:len(g.pend)]
	for shift := 0; shift <= 32; shift += 32 {
		next := zeroed(g.offs, g.n+1) // next[d]: where the next pair with digit d goes
		for _, p := range src {
			next[uint32(p>>shift)+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for _, p := range src {
			d := uint32(p >> shift)
			dst[next[d]] = p
			next[d]++
		}
		g.offs, src, dst = next, dst, src
	}
	g.tmp = dst
	pairs := slices.Compact(src)
	g.nbrs = slices.Grow(g.nbrs[:0], len(pairs))[:len(pairs)]
	u := 0
	g.offs[0] = 0
	for i, p := range pairs {
		for ; u < int(p>>32); u++ {
			g.offs[u+1] = int32(i)
		}
		g.nbrs[i] = int32(uint32(p))
	}
	for ; u < g.n; u++ {
		g.offs[u+1] = int32(len(pairs))
	}
	g.pend = src[:0]
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphutil: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Neighbors returns the neighbors of v in ascending order. The slice is a
// view into the graph's storage: read-only, valid until the next AddEdge or
// Reset.
func (g *Graph) Neighbors(v int) []int32 {
	g.check(v)
	g.seal()
	return g.nbrs[g.offs[v]:g.offs[v+1]]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(v)
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.Neighbors(v)) }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	g.seal()
	return len(g.nbrs) / 2
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	g.seal()
	return &Graph{n: g.n, offs: slices.Clone(g.offs), nbrs: slices.Clone(g.nbrs)}
}

// Components returns the connected components over the vertices for which
// include(v) is true (all vertices when include is nil). Each component is
// sorted ascending and components are ordered by their smallest vertex.
func (g *Graph) Components(include func(int) bool) [][]int {
	g.seal()
	open := make([]bool, g.n) // included and not yet visited
	for v := range open {
		open[v] = include == nil || include(v)
	}
	var comps [][]int
	var queue []int32
	// Seeding in ascending order yields the components ordered by smallest
	// vertex directly.
	for s := range open {
		if !open[s] {
			continue
		}
		open[s] = false
		queue = append(queue[:0], int32(s))
		var comp []int
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			comp = append(comp, int(v))
			for _, u := range g.nbrs[g.offs[v]:g.offs[v+1]] {
				if open[u] {
					open[u] = false
					queue = append(queue, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// MCS runs Maximum Cardinality Search over the given vertex subset and
// returns the visit order (first visited first). Ties break toward the
// smallest vertex id, so the result is deterministic. The *reverse* of the
// visit order is a perfect elimination ordering when the induced subgraph
// is chordal.
func (g *Graph) MCS(vertices []int) []int {
	var c Chordal
	c.load(g, vertices)
	c.mcs()
	order := make([]int, len(c.order))
	for i, v := range c.order {
		order[i] = c.verts[v]
	}
	return order
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
	// The filled bit rows are H's adjacency, already ascending.
	h := &Graph{n: g.n, offs: make([]int32, g.n+1)}
	for i, v := range c.verts {
		for _, x := range c.row(c.rows, i) {
			h.offs[v+1] += int32(bits.OnesCount64(x))
		}
	}
	for v := 0; v < g.n; v++ {
		h.offs[v+1] += h.offs[v]
	}
	h.nbrs = make([]int32, 0, h.offs[g.n])
	for i := range c.verts {
		h.nbrs = c.appendBits(h.nbrs, c.row(c.rows, i))
	}
	return h, peo
}

// MaximalCliquesChordal returns the maximal cliques of a chordal graph h
// restricted to the vertices of the given perfect elimination ordering.
// Each candidate clique is {v} ∪ {later neighbors of v}; non-maximal
// candidates are filtered out. Cliques are sorted internally and ordered by
// their smallest vertex for determinism.
func MaximalCliquesChordal(h *Graph, peo []int) [][]int {
	var c Chordal
	c.load(h, peo)
	c.peo = c.peo[:0]
	for _, v := range peo {
		i, _ := slices.BinarySearch(c.verts, v)
		c.peo = append(c.peo, int32(i))
	}
	c.eliminateAlong()
	return c.maximalCliques()
}

// IsClique reports whether the given vertices are pairwise adjacent in g.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// IsChordal reports whether the subgraph induced by vertices is chordal: the
// reverse MCS order is a perfect elimination ordering exactly when the
// elimination game along it adds no edge.
func (g *Graph) IsChordal(vertices []int) bool {
	var c Chordal
	c.load(g, vertices)
	c.mcs()
	before := c.bitCount()
	c.eliminateAlong()
	return c.bitCount() == before
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

// CliquesOfRows returns the maximal cliques of the chordal completion of r —
// FillIn followed by MaximalCliquesChordal on the graph r holds, without
// materializing the completion as a Graph. The result is owned by the
// workspace and valid until its next call.
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

// load renumbers the subset and fills the bit matrix with its induced
// subgraph: the Graph path of MCS, FillIn, MaximalCliquesChordal and
// IsChordal, which the planner does not take.
func (c *Chordal) load(g *Graph, vertices []int) {
	g.seal()
	c.verts = append(c.verts[:0], vertices...)
	slices.Sort(c.verts)
	c.verts = slices.Compact(c.verts)
	c.words = (len(c.verts) + 63) / 64
	c.rows = zeroed(c.rows, len(c.verts)*c.words)
	for i, v := range c.verts {
		g.check(v)
		row := c.row(c.rows, i)
		for _, u := range g.nbrs[g.offs[v]:g.offs[v+1]] {
			if j, in := slices.BinarySearch(c.verts, int(u)); in {
				row[j>>6] |= 1 << uint(j&63)
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

// appendBits appends the vertices of a bit row to dst, ascending.
func (c *Chordal) appendBits(dst []int32, row []uint64) []int32 {
	for j, x := range row {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, int32(c.verts[j<<6+bits.TrailingZeros64(x)]))
		}
	}
	return dst
}

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

// bitCount returns twice the number of edges in the bit matrix.
func (c *Chordal) bitCount() int {
	n := 0
	for _, x := range c.rows {
		n += bits.OnesCount64(x)
	}
	return n
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
	// Cliques sharing their smallest vertex tie here and sort.Slice is not
	// stable: the RTC construction's clique choice breaks its own ties by
	// position in this list, so the sort call is part of the contract.
	out := c.cliques
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
