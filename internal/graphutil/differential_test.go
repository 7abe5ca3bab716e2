package graphutil

import (
	"math/rand"
	"slices"
	"testing"
)

// edgeList returns g's edges as sorted (u<v) pairs.
func (g *Graph) edgeList() [][2]int {
	var out [][2]int
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				out = append(out, [2]int{v, int(u)})
			}
		}
	}
	return out
}

// rowsOf returns the subgraph of g induced by vs as sparse bit rows, the
// vertices numbered in ascending order, and that numbering.
func rowsOf(g *Graph, vs []int) (*Rows, []int) {
	verts := slices.Compact(slices.Sorted(slices.Values(vs)))
	r := &Rows{Offs: []int32{0}}
	for _, v := range verts {
		for j, u := range verts {
			if !g.HasEdge(v, u) {
				continue
			}
			if n := len(r.At); n > int(r.Offs[len(r.Offs)-1]) && r.At[n-1] == int32(j>>6) {
				r.Words[n-1] |= 1 << uint(j&63)
			} else {
				r.At = append(r.At, int32(j>>6))
				r.Words = append(r.Words, 1<<uint(j&63))
			}
		}
		r.Offs = append(r.Offs, int32(len(r.At)))
	}
	return r, verts
}

// TestChordalPipelineMatchesReference is the differential contract of the
// CSR/bitset rewrite: on random graphs up to 200 vertices — whole vertex
// range and random subsets, sparse to dense, edges reported more than once —
// MCS order, perfect elimination ordering, fill-edge set and clique list
// (order included: the RTC construction breaks ties by position) equal the
// hash-map reference's, every completion is chordal, and a reused Chordal
// workspace returns from sparse bit rows the same cliques as the two-step
// public path.
func TestChordalPipelineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20250930))
	var ws Chordal // reused across every graph and subset, like treeBuilder's
	for trial := 0; trial < 120; trial++ {
		n := 1 + r.Intn(200)
		p := []float64{0.01, 0.03, 0.08, 0.2, 0.5}[r.Intn(5)]
		g, ref := New(n), newRef(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					for k := 0; k <= r.Intn(2); k++ { // duplicates must be free
						g.AddEdge(j, i)
						ref.AddEdge(i, j)
					}
				}
			}
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
		for _, vs := range subsets {
			if got, want := g.MCS(vs), ref.MCS(vs); !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d p=%v |vs|=%d): MCS order\n got %v\nwant %v", trial, n, p, len(vs), got, want)
			}
			h, peo := g.FillIn(vs)
			rh, rpeo := ref.FillIn(vs)
			if !slices.Equal(peo, rpeo) {
				t.Fatalf("trial %d: PEO\n got %v\nwant %v", trial, peo, rpeo)
			}
			if got, want := h.edgeList(), rh.edgeList(); !slices.Equal(got, want) {
				t.Fatalf("trial %d: completion has %d edges, reference %d", trial, len(got), len(want))
			}
			if !h.IsChordal(vs) {
				t.Fatalf("trial %d: FillIn result is not chordal", trial)
			}
			want := refMaximalCliquesChordal(rh, rpeo)
			rows, verts := rowsOf(g, vs)
			var fromRows [][]int
			for _, clique := range ws.CliquesOfRows(rows) {
				var ids []int
				for _, v := range clique {
					ids = append(ids, verts[v])
				}
				fromRows = append(fromRows, ids)
			}
			for name, got := range map[string][][]int{
				"MaximalCliquesChordal": MaximalCliquesChordal(h, peo),
				"Chordal.CliquesOfRows": fromRows,
			} {
				if len(got) != len(want) {
					t.Fatalf("trial %d: %s found %d cliques, reference %d", trial, name, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("trial %d: %s clique %d = %v, reference %v", trial, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestResetReusesStorage pins the per-instant rebuild path: a Reset graph
// forgets every edge of the larger graph it was before.
func TestResetReusesStorage(t *testing.T) {
	g := randomGraph(30, 0.4, 5)
	g.Reset(4)
	g.AddEdge(0, 3)
	if g.N() != 4 || g.Edges() != 1 || !g.HasEdge(3, 0) || g.Degree(1) != 0 {
		t.Fatalf("after Reset: n=%d edges=%d", g.N(), g.Edges())
	}
	g.AddEdge(1, 2) // an insertion after a query folds into the sealed edges
	if g.Edges() != 2 || !g.HasEdge(0, 3) || !g.HasEdge(2, 1) {
		t.Fatalf("after second insertion: edges=%d", g.Edges())
	}
}

// TestGroupsMatchPairs holds the group form of a Graph to the pair form: on
// random groups over up to 150 vertices, a graph given the groups answers
// Edges, Neighbors, Components and FillIn exactly as one given AddEdge of
// every pair of every group, duplicates and one-vertex groups included.
func TestGroupsMatchPairs(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var grouped Graph // reused, as a Separator reuses its graph
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(150)
		offs, members := []int32{0}, []int32(nil)
		pairs := New(n)
		for range r.Intn(2 * n) {
			size := 1 + r.Intn(min(n, 1+r.Intn(12)))
			group := r.Perm(n)[:size]
			slices.Sort(group)
			for a, u := range group {
				members = append(members, int32(u))
				for _, v := range group[a+1:] {
					pairs.AddEdge(u, v)
				}
			}
			offs = append(offs, int32(len(members)))
		}
		grouped.ResetGroups(n, offs, members)
		if grouped.N() != n || grouped.Edges() != pairs.Edges() {
			t.Fatalf("trial %d: %d vertices and %d edges, pairs %d and %d", trial, grouped.N(), grouped.Edges(), n, pairs.Edges())
		}
		for v := range n {
			if !slices.Equal(grouped.Neighbors(v), pairs.Neighbors(v)) {
				t.Fatalf("trial %d: vertex %d neighbours %v, pairs %v", trial, v, grouped.Neighbors(v), pairs.Neighbors(v))
			}
		}
		comps := pairs.Components(nil)
		if got := grouped.Components(nil); !slices.EqualFunc(got, comps, slices.Equal) {
			t.Fatalf("trial %d: components %v, pairs %v", trial, got, comps)
		}
		for _, comp := range comps {
			h, peo := grouped.FillIn(comp)
			wh, wpeo := pairs.FillIn(comp)
			if !slices.Equal(peo, wpeo) || !slices.Equal(h.edgeList(), wh.edgeList()) {
				t.Fatalf("trial %d: fill-in of %v differs from the pairs'", trial, comp)
			}
		}
	}
}

// TestResetDropsGroups: a Reset or a second ResetGroups forgets the groups of
// the last ResetGroups, whether or not they were ever expanded.
func TestResetDropsGroups(t *testing.T) {
	var g Graph
	g.ResetGroups(5, []int32{0, 3}, []int32{0, 1, 2})
	g.Reset(5)
	g.AddEdge(3, 4)
	if g.Edges() != 1 || g.HasEdge(0, 1) {
		t.Fatalf("after Reset: %d edges, 0–1 %v", g.Edges(), g.HasEdge(0, 1))
	}
	g.ResetGroups(5, []int32{0, 3}, []int32{0, 1, 2})
	if g.Edges() != 3 {
		t.Fatalf("expanded groups: %d edges", g.Edges())
	}
	g.ResetGroups(5, []int32{0, 2}, []int32{3, 4})
	if g.Edges() != 1 || !g.HasEdge(4, 3) || g.HasEdge(0, 1) {
		t.Fatalf("after a second ResetGroups: %d edges", g.Edges())
	}
	g.ResetGroups(5, []int32{0, 2}, []int32{0, 1})
	g.AddEdge(2, 3) // pairs added beside unexpanded groups join them
	if g.Edges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(3, 2) {
		t.Fatalf("groups and pairs: %d edges", g.Edges())
	}
}
