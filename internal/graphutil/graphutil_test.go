package graphutil

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func allVertices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pairs returns the graph on n vertices whose edges are ends[0]–ends[1],
// ends[2]–ends[3], …, each a two-member group.
func pairs(n int, ends ...int) *Graph {
	offs, members := []int32{0}, make([]int32, len(ends))
	for i, v := range ends {
		members[i] = int32(v)
		if i%2 == 1 {
			offs = append(offs, int32(i+1))
		}
	}
	g := new(Graph)
	g.ResetGroups(n, offs, members)
	return g
}

// randomGraph builds a deterministic Erdős–Rényi graph.
func randomGraph(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	var ends []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				ends = append(ends, i, j)
			}
		}
	}
	return pairs(n, ends...)
}

// chordal reports whether the elimination game on all of h adds no edge.
func chordal(h *Graph) bool {
	filled, _ := h.FillIn(allVertices(h.N()))
	return filled.Edges() == h.Edges()
}

func TestBasicOps(t *testing.T) {
	g := pairs(4, 0, 1, 1, 2, 1, 1) // the self loop is ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Error("edge should be symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) || g.HasEdge(1, 1) {
		t.Error("absent edge or self loop reported")
	}
	if g.Edges() != 2 {
		t.Errorf("Edges = %d", g.Edges())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := pairs(2)
	for i, f := range []func(){
		func() { g.HasEdge(-1, 0) },
		func() { g.HasEdge(0, 2) },
		func() { g.FillIn([]int{0, 2}) },
		func() { pairs(2, 0, 2).Edges() }, // a group member ≥ n
		func() { pairs(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestComponents(t *testing.T) {
	g := pairs(7, 0, 1, 1, 2, 3, 4) // 5, 6 isolated
	if comps := g.Components(nil); !reflect.DeepEqual(comps, [][]int{{0, 1, 2}, {3, 4}, {5}, {6}}) {
		t.Fatalf("components = %v", comps)
	}
	// Excluding vertex 1 splits the first component.
	if comps := g.Components(func(v int) bool { return v != 1 }); len(comps) != 5 {
		t.Fatalf("components excluding 1 = %v", comps)
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(12, 0.2, seed)
		compOf := make([]int, 12)
		var all []int
		for i, c := range g.Components(nil) {
			for _, v := range c {
				compOf[v] = i
			}
			all = append(all, c...)
		}
		// Every vertex once, and no edge between components.
		ok := slices.Equal(slices.Sorted(slices.Values(all)), allVertices(12))
		for v := 0; v < 12; v++ {
			for u := 0; u < 12; u++ {
				ok = ok && !(g.HasEdge(v, u) && compOf[u] != compOf[v])
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFillInProducesChordal(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(10, 0.25, seed)
		h, peo := g.FillIn(allVertices(10))
		// Fill-in is a chordal supergraph of g.
		ok := len(peo) == 10 && chordal(h)
		for v := 0; v < 10; v++ {
			for u := 0; u < 10; u++ {
				ok = ok && (!g.HasEdge(v, u) || h.HasEdge(v, u))
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIsChordalKnownGraphs: the elimination game recognises chordal graphs
// by adding no edge, and a chordless 4-cycle by adding one.
func TestIsChordalKnownGraphs(t *testing.T) {
	for name, c := range map[string]struct {
		g       *Graph
		chordal bool
	}{
		"triangle":     {pairs(3, 0, 1, 1, 2, 0, 2), true},
		"C4":           {pairs(4, 0, 1, 1, 2, 2, 3, 3, 0), false},
		"C4 and chord": {pairs(4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2), true},
		"tree":         {pairs(5, 0, 1, 0, 2, 2, 3, 2, 4), true},
		"empty":        {pairs(4), true},
	} {
		if chordal(c.g) != c.chordal {
			t.Errorf("%s: chordal %v, want %v", name, !c.chordal, c.chordal)
		}
	}
}

// TestFillInChordalInputUnchanged: a chordal input needs no fill edges.
func TestFillInChordalInputUnchanged(t *testing.T) {
	for name, g := range map[string]*Graph{
		"triangle":             pairs(3, 0, 1, 1, 2, 0, 2),
		"triangle and pendant": pairs(4, 0, 1, 1, 2, 0, 2, 2, 3),
		"C4 and chord":         pairs(4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2),
		"tree":                 pairs(5, 0, 1, 0, 2, 2, 3, 2, 4),
		"empty":                pairs(4),
	} {
		if !chordal(g) {
			t.Errorf("%s gained fill edges", name)
		}
	}
}

func TestFillInC4AddsOneChord(t *testing.T) {
	c4 := pairs(4, 0, 1, 1, 2, 2, 3, 3, 0)
	h, _ := c4.FillIn(allVertices(4))
	if h.Edges() != 5 || chordal(c4) || !chordal(h) {
		t.Errorf("C4 fill-in has %d edges, want 5, and only it chordal", h.Edges())
	}
}

func TestFillInSubsetOnly(t *testing.T) {
	g := pairs(6, 0, 1, 4, 5)
	h, peo := g.FillIn([]int{0, 1, 2})
	if len(peo) != 3 || h.HasEdge(4, 5) || !h.HasEdge(0, 1) {
		t.Errorf("fill-in of {0,1,2}: peo %v, edges 4–5 %v, 0–1 %v", peo, h.HasEdge(4, 5), h.HasEdge(0, 1))
	}
}

// The clique tests run CliquesOfRows, the planner's path, on a Graph's rows.
func TestMaximalCliquesChordalTriangle(t *testing.T) {
	var ws Chordal
	if got := ws.CliquesOfRows(pairs(4, 0, 1, 1, 2, 0, 2, 2, 3).laidOut()); !reflect.DeepEqual(got, [][]int{{0, 1, 2}, {2, 3}}) {
		t.Errorf("cliques = %v", got)
	}
}

func TestMaximalCliquesProperty(t *testing.T) {
	var ws Chordal
	f := func(seed int64) bool {
		g := randomGraph(9, 0.3, seed)
		h, _ := g.FillIn(allVertices(9))
		cliques := ws.CliquesOfRows(g.laidOut())
		covered := make(map[int]bool)
		for i, c := range cliques {
			for a, u := range c {
				covered[u] = true
				for _, v := range c[a+1:] {
					if !h.HasEdge(u, v) { // a clique of the completion
						return false
					}
				}
			}
			for j, d := range cliques {
				if i != j && subset(c, d) { // and maximal
					return false
				}
			}
		}
		return len(covered) == 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, []int{1, 2}, true},
		{[]int{1}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{1, 3}, []int{1, 2}, false},
		{[]int{1, 2, 3}, []int{1, 2}, false},
		{[]int{5}, nil, false},
	}
	for _, c := range cases {
		if got := subset(c.a, c.b); got != c.want {
			t.Errorf("subset(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestCliquesSortedDeterministic(t *testing.T) {
	rows := randomGraph(8, 0.4, 7).laidOut()
	var wa, wb Chordal
	a, b := wa.CliquesOfRows(rows), wb.CliquesOfRows(rows)
	if !slices.EqualFunc(a, b, slices.Equal) {
		t.Fatal("nondeterministic cliques")
	}
	for _, c := range a {
		if !slices.IsSorted(c) {
			t.Error("clique not sorted")
		}
	}
}

func TestLazyAdjacency(t *testing.T) {
	// Vertices no group touches are isolated.
	g := pairs(1000, 2, 3)
	if g.HasEdge(999, 998) || g.HasEdge(0, 1) || g.HasEdge(500, 3) || len(g.Components(nil)) != 999 {
		t.Fatal("untouched vertices must look isolated")
	}
	if !g.HasEdge(2, 3) || g.Edges() != 1 {
		t.Fatal("edge lost")
	}
}

// TestResetReusesStorage pins the per-instant rebuild path: a Graph reset
// to fewer vertices forgets every edge and row of the laid-out larger graph
// it was before, and growing it again answers as a fresh graph does.
func TestResetReusesStorage(t *testing.T) {
	g := randomGraph(30, 0.4, 5)
	g.Edges()
	g.ResetGroups(4, []int32{0, 2}, []int32{0, 3})
	if g.N() != 4 || g.Edges() != 1 || !g.HasEdge(3, 0) || g.HasEdge(1, 2) || len(g.Components(nil)) != 3 {
		t.Fatalf("after ResetGroups: n=%d edges=%d", g.N(), g.Edges())
	}
	fresh := randomGraph(30, 0.2, 6)
	ends := make([]int32, 0, 2*fresh.Edges())
	for _, e := range fresh.edgeList() {
		ends = append(ends, int32(e[0]), int32(e[1]))
	}
	offs := make([]int32, 0, len(ends)/2+1)
	for i := 0; i <= len(ends); i += 2 {
		offs = append(offs, int32(i))
	}
	g.ResetGroups(30, offs, ends)
	if !slices.Equal(g.edgeList(), fresh.edgeList()) || !slices.EqualFunc(g.Components(nil), fresh.Components(nil), slices.Equal) {
		t.Fatalf("regrown graph has %d edges, a fresh one %d", g.Edges(), fresh.Edges())
	}
}

// TestResetDropsGroups: a reused Graph answers for its last ResetGroups
// alone, forgetting the groups before, whether or not those were ever laid
// out.
func TestResetDropsGroups(t *testing.T) {
	var g Graph
	g.ResetGroups(5, []int32{0, 3}, []int32{0, 1, 2})
	g.ResetGroups(5, []int32{0, 2}, []int32{3, 4})
	if g.N() != 5 || g.Edges() != 1 || !g.HasEdge(4, 3) || g.HasEdge(0, 1) {
		t.Fatalf("after a second ResetGroups: n=%d, %d edges", g.N(), g.Edges())
	}
	g.ResetGroups(4, []int32{0, 3, 3, 5}, []int32{0, 1, 2, 2, 3}) // an empty group
	if g.N() != 4 || g.Edges() != 4 || !g.HasEdge(3, 2) || g.HasEdge(0, 3) {
		t.Fatalf("after a third ResetGroups: n=%d, %d edges", g.N(), g.Edges())
	}
}

// TestParallelQueries: once a query has run after ResetGroups, goroutines
// querying a Graph at once each get the answers of a lone caller.
func TestParallelQueries(t *testing.T) {
	g := randomGraph(150, 0.05, 9)
	g.Edges()
	query := func() []any {
		h, peo := g.FillIn(allVertices(150))
		return []any{g.edgeList(), g.Components(nil), h.edgeList(), peo}
	}
	want, got := query(), make([][]any, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = query()
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("goroutine %d answered differently from a lone caller", i)
		}
	}
}
