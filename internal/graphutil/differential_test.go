package graphutil

import (
	"math/rand"
	"slices"
	"testing"
)

// edgeList returns g's edges as sorted (u<v) pairs.
func (g *Graph) edgeList() (out [][2]int) {
	for v := range g.N() {
		for u := v + 1; u < g.N(); u++ {
			if g.HasEdge(v, u) {
				out = append(out, [2]int{v, u})
			}
		}
	}
	return out
}

// rowsOf returns the subgraph of g induced by vs as sparse bit rows, the
// vertices numbered in ascending order, and that numbering.
func rowsOf(g *Graph, vs []int) (*Rows, []int) {
	verts := slices.Compact(slices.Sorted(slices.Values(vs)))
	var ends []int
	for j, v := range verts {
		for i, u := range verts[:j] {
			if g.HasEdge(u, v) {
				ends = append(ends, i, j)
			}
		}
	}
	return pairs(len(verts), ends...).laidOut(), verts
}

// refComponents returns ref's connected components in Components' format,
// spreading the smaller label across every edge until no label changes.
func refComponents(ref *refGraph) [][]int {
	label, edges := allVertices(ref.n), ref.edgeList()
	for again := true; again; {
		again = false
		for _, e := range edges {
			if a, b := label[e[0]], label[e[1]]; a != b {
				label[e[0]], label[e[1]], again = min(a, b), min(a, b), true
			}
		}
	}
	comps := make([][]int, ref.n) // by label: a component's smallest vertex
	for v, l := range label {
		comps[l] = append(comps[l], v)
	}
	return slices.DeleteFunc(comps, func(c []int) bool { return c == nil })
}

// TestChordalPipelineMatchesReference is the differential contract of the
// bit-row rewrite. On random graphs up to 200 vertices, given as edges (some
// twice) or as groups (unordered; singletons, repeated groups and members
// included), a reused Graph has the hash-map reference's edges and
// components. On the whole vertex range, a random subset and each component
// of the group-built graphs, FillIn's elimination order (the reverse MCS
// order) and fill edges are the reference's, and its completion is chordal;
// a reused Chordal returns from sparse bit rows the reference's clique list,
// order included (the RTC construction breaks ties by position).
func TestChordalPipelineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20250930))
	var g Graph    // reused, as a Separator reuses its graph
	var ws Chordal // reused across every graph and subset, like treeBuilder's
	for trial := 0; trial < 180; trial++ {
		n := 1 + r.Intn(200)
		ref := newRef(n)
		offs, members := []int32{0}, []int32(nil)
		group := func(vs ...int) {
			for a, u := range vs {
				members = append(members, int32(u))
				for _, v := range vs[a+1:] {
					ref.AddEdge(u, v)
				}
			}
			offs = append(offs, int32(len(members)))
		}
		if trial%3 < 2 {
			p := []float64{0.01, 0.03, 0.08, 0.2, 0.5}[r.Intn(5)]
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r.Float64() < p {
						for k := 0; k <= r.Intn(2); k++ { // duplicates must be free
							group(j, i)
						}
					}
				}
			}
		} else {
			for range r.Intn(2 * n) {
				vs := r.Perm(n)[:1+r.Intn(min(n, 1+r.Intn(12)))]
				if r.Intn(4) == 0 {
					vs = append(vs, vs[r.Intn(len(vs))])
				}
				group(vs...)
				if r.Intn(4) == 0 {
					group(vs...)
				}
			}
		}
		g.ResetGroups(n, offs, members)
		if want := ref.edgeList(); g.N() != n || g.Edges() != len(want) || !slices.Equal(g.edgeList(), want) {
			t.Fatalf("trial %d (n=%d): %d edges, reference %d", trial, n, g.Edges(), len(want))
		}
		comps := refComponents(ref)
		if got := g.Components(nil); !slices.EqualFunc(got, comps, slices.Equal) {
			t.Fatalf("trial %d: components\n got %v\nwant %v", trial, got, comps)
		}
		subsets := [][]int{allVertices(n)}
		var some []int
		for v := 0; v < n; v++ {
			if r.Intn(3) > 0 {
				some = append(some, v)
			}
		}
		r.Shuffle(len(some), func(i, j int) { some[i], some[j] = some[j], some[i] })
		subsets = append(subsets, some)
		for _, comp := range comps {
			if trial%3 == 2 && len(comp) > 1 && len(comp) < n {
				subsets = append(subsets, comp)
			}
		}
		for _, vs := range subsets {
			h, peo := g.FillIn(vs)
			rh, rpeo := ref.FillIn(vs)
			if !slices.Equal(peo, rpeo) {
				t.Fatalf("trial %d (n=%d |vs|=%d): PEO\n got %v\nwant %v", trial, n, len(vs), peo, rpeo)
			}
			if got, want := h.edgeList(), rh.edgeList(); !slices.Equal(got, want) {
				t.Fatalf("trial %d: completion has %d edges, reference %d", trial, len(got), len(want))
			}
			if again, _ := h.FillIn(vs); again.Edges() != h.Edges() {
				t.Fatalf("trial %d: FillIn result is not chordal", trial)
			}
			want := refMaximalCliquesChordal(rh, rpeo)
			rows, verts := rowsOf(&g, vs)
			var got [][]int
			for _, clique := range ws.CliquesOfRows(rows) {
				ids := make([]int, 0, len(clique))
				for _, v := range clique {
					ids = append(ids, verts[v])
				}
				got = append(got, ids)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("trial %d: CliquesOfRows\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

// TestGroupsMatchPairs holds the group form of a Graph to the pair form: on
// random groups over up to 150 vertices, a graph given the groups answers
// Edges, HasEdge, Components and FillIn exactly as one given every pair of
// every group as a two-member group, duplicates and one-vertex groups
// included.
func TestGroupsMatchPairs(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var grouped Graph // reused, as a Separator reuses its graph
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(150)
		offs, members, ends := []int32{0}, []int32(nil), []int(nil)
		for range r.Intn(2 * n) {
			size := 1 + r.Intn(min(n, 1+r.Intn(12)))
			group := r.Perm(n)[:size]
			for a, u := range group {
				members = append(members, int32(u))
				for _, v := range group[a+1:] {
					ends = append(ends, u, v)
				}
			}
			offs = append(offs, int32(len(members)))
		}
		grouped.ResetGroups(n, offs, members)
		paired := pairs(n, ends...)
		if grouped.N() != n || grouped.Edges() != paired.Edges() {
			t.Fatalf("trial %d: %d vertices and %d edges, pairs %d and %d", trial, grouped.N(), grouped.Edges(), n, paired.Edges())
		}
		if got, want := grouped.edgeList(), paired.edgeList(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: edges\n got %v\nwant %v", trial, got, want)
		}
		comps := paired.Components(nil)
		if got := grouped.Components(nil); !slices.EqualFunc(got, comps, slices.Equal) {
			t.Fatalf("trial %d: components %v, pairs %v", trial, got, comps)
		}
		for _, comp := range comps {
			h, peo := grouped.FillIn(comp)
			wh, wpeo := paired.FillIn(comp)
			if !slices.Equal(peo, wpeo) || !slices.Equal(h.edgeList(), wh.edgeList()) {
				t.Fatalf("trial %d: fill-in of %v differs from the pairs'", trial, comp)
			}
		}
	}
}
