package graphutil

import (
	"fmt"
	"sort"
)

// refGraph is the hash-map graph this package used before the CSR/bitset
// rewrite, kept verbatim as the reference oracle of the differential tests:
// MCS order, perfect elimination ordering, fill edges and clique list of the
// production code must equal what these functions return.
type refGraph struct {
	n   int
	adj []map[int]struct{}
}

func newRef(n int) *refGraph {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	return &refGraph{n: n, adj: make([]map[int]struct{}, n)}
}

// AddEdge inserts the undirected edge {u, v}; self-loops are ignored.
func (g *refGraph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]struct{})
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]struct{})
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
}

func (g *refGraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphutil: vertex %d out of range [0,%d)", v, g.n))
	}
}

// MCS runs Maximum Cardinality Search over the given vertex subset and
// returns the visit order (first visited first). Ties break toward the
// smallest vertex id, so the result is deterministic. The *reverse* of the
// visit order is a perfect elimination ordering when the induced subgraph
// is chordal.
func (g *refGraph) MCS(vertices []int) []int {
	in := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		g.check(v)
		in[v] = true
	}
	weight := make(map[int]int, len(vertices))
	visited := make(map[int]bool, len(vertices))
	order := make([]int, 0, len(vertices))
	// Deterministic: scan ascending ids. The sorted id list is loop
	// invariant, so it is built once, not per selection round.
	sorted := make([]int, 0, len(in))
	for v := range in {
		sorted = append(sorted, v)
	}
	sort.Ints(sorted)
	for len(order) < len(in) {
		best, bestW := -1, -1
		for _, v := range sorted {
			if visited[v] {
				continue
			}
			if weight[v] > bestW {
				best, bestW = v, weight[v]
			}
		}
		visited[best] = true
		order = append(order, best)
		for u := range g.adj[best] {
			if in[u] && !visited[u] {
				weight[u]++
			}
		}
	}
	return order
}

// FillIn runs the elimination game on the subgraph induced by vertices,
// using the reverse MCS visit order as the elimination order. It returns
// the chordal completion H (on the same vertex ids, containing only edges
// among the subset plus fill edges) and the perfect elimination ordering of
// H (first eliminated first).
func (g *refGraph) FillIn(vertices []int) (*refGraph, []int) {
	order := g.MCS(vertices)
	// Eliminate in reverse visit order.
	peo := make([]int, len(order))
	for i, v := range order {
		peo[len(order)-1-i] = v
	}
	pos := make(map[int]int, len(peo))
	for i, v := range peo {
		pos[v] = i
	}
	h := newRef(g.n)
	in := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	for v, a := range g.adj {
		if !in[v] {
			continue
		}
		for u := range a {
			if in[u] && u > v {
				h.AddEdge(v, u)
			}
		}
	}
	for _, v := range peo {
		// Later neighbors of v (not yet eliminated) must form a clique.
		later := make([]int, 0, len(h.adj[v]))
		for u := range h.adj[v] {
			if pos[u] > pos[v] {
				later = append(later, u)
			}
		}
		for i := 0; i < len(later); i++ {
			for j := i + 1; j < len(later); j++ {
				h.AddEdge(later[i], later[j])
			}
		}
	}
	return h, peo
}

// MaximalCliquesChordal returns the maximal cliques of a chordal graph h
// restricted to the vertices of the given perfect elimination ordering.
// Each candidate clique is {v} ∪ {later neighbors of v}; non-maximal
// candidates are filtered out. Cliques are sorted internally and ordered by
// their smallest vertex for determinism.
func refMaximalCliquesChordal(h *refGraph, peo []int) [][]int {
	pos := make(map[int]int, len(peo))
	for i, v := range peo {
		pos[v] = i
	}
	var cands [][]int
	for _, v := range peo {
		c := []int{v}
		for u := range h.adj[v] {
			if p, ok := pos[u]; ok && p > pos[v] {
				c = append(c, u)
			}
		}
		sort.Ints(c)
		cands = append(cands, c)
	}
	// Filter cliques contained in another candidate.
	var out [][]int
	for i, c := range cands {
		maximal := true
		for j, d := range cands {
			if i == j || len(c) > len(d) {
				continue
			}
			if len(c) == len(d) && i < j {
				continue // keep the first of duplicates
			}
			if subset(c, d) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// subset reports whether sorted slice a ⊆ sorted slice b.
func subset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// edgeList returns the reference graph's edges as sorted (u<v) pairs.
func (g *refGraph) edgeList() [][2]int {
	var out [][2]int
	for v, a := range g.adj {
		for u := range a {
			if u > v {
				out = append(out, [2]int{v, u})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
