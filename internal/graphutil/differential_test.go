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

// TestChordalPipelineMatchesReference is the differential contract of the
// CSR/bitset rewrite: on random graphs up to 200 vertices — whole vertex
// range and random subsets, sparse to dense, edges reported more than once —
// MCS order, perfect elimination ordering, fill-edge set and clique list
// (order included: the RTC construction breaks ties by position) equal the
// hash-map reference's, every completion is chordal, and a reused Chordal
// workspace returns the same cliques as the two-step public path.
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
			for name, got := range map[string][][]int{
				"MaximalCliquesChordal": MaximalCliquesChordal(h, peo),
				"Chordal.Cliques":       ws.Cliques(g, vs),
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
