package graphutil

import (
	"math/rand"
	"sort"
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

// randomGraph builds a deterministic Erdős–Rényi graph.
func randomGraph(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestBasicOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1) // self loop ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("absent edge reported")
	}
	if g.HasEdge(1, 1) {
		t.Error("self loop should be ignored")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
	if g.Edges() != 2 {
		t.Errorf("Edges = %d", g.Edges())
	}
	want := []int32{0, 2}
	got := g.Neighbors(1)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := randomGraph(6, 0.5, 1)
	c := g.Clone()
	c.AddEdge(0, 5)
	g2 := randomGraph(6, 0.5, 1)
	if g.Edges() != g2.Edges() {
		t.Error("Clone mutated the original")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(2)
	for i, f := range []func(){
		func() { g.AddEdge(0, 2) },
		func() { g.HasEdge(-1, 0) },
		func() { g.Degree(5) },
		func() { New(-1) },
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
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated
	comps := g.Components(nil)
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Errorf("first component = %v", comps[0])
	}
	// Excluding vertex 1 splits the first component.
	comps = g.Components(func(v int) bool { return v != 1 })
	if len(comps) != 5 {
		t.Fatalf("components excluding 1 = %v", comps)
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(12, 0.2, seed)
		comps := g.Components(nil)
		seen := make(map[int]int)
		for _, c := range comps {
			for _, v := range c {
				seen[v]++
			}
		}
		if len(seen) != 12 {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		// No edges between different components.
		compOf := make(map[int]int)
		for i, c := range comps {
			for _, v := range c {
				compOf[v] = i
			}
		}
		for v := 0; v < 12; v++ {
			for _, u := range g.Neighbors(v) {
				if compOf[int(u)] != compOf[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMCSVisitsAll(t *testing.T) {
	g := randomGraph(10, 0.3, 3)
	order := g.MCS(allVertices(10))
	if len(order) != 10 {
		t.Fatalf("MCS visited %d vertices", len(order))
	}
	seen := make(map[int]bool)
	for _, v := range order {
		if seen[v] {
			t.Fatal("MCS visited a vertex twice")
		}
		seen[v] = true
	}
}

func TestMCSDeterministic(t *testing.T) {
	g := randomGraph(15, 0.3, 4)
	a := g.MCS(allVertices(15))
	b := g.MCS(allVertices(15))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MCS order not deterministic")
		}
	}
}

func TestMCSSubset(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	order := g.MCS([]int{2, 3, 4})
	if len(order) != 3 {
		t.Fatalf("subset MCS = %v", order)
	}
	for _, v := range order {
		if v != 2 && v != 3 && v != 4 {
			t.Fatalf("MCS left the subset: %v", order)
		}
	}
}

func TestIsChordalKnownGraphs(t *testing.T) {
	// Triangle: chordal.
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if !tri.IsChordal(allVertices(3)) {
		t.Error("triangle should be chordal")
	}
	// C4: not chordal.
	c4 := New(4)
	c4.AddEdge(0, 1)
	c4.AddEdge(1, 2)
	c4.AddEdge(2, 3)
	c4.AddEdge(3, 0)
	if c4.IsChordal(allVertices(4)) {
		t.Error("4-cycle should not be chordal")
	}
	// C4 plus a chord: chordal.
	c4.AddEdge(0, 2)
	if !c4.IsChordal(allVertices(4)) {
		t.Error("4-cycle with chord should be chordal")
	}
	// Tree: chordal.
	tree := New(5)
	tree.AddEdge(0, 1)
	tree.AddEdge(0, 2)
	tree.AddEdge(2, 3)
	tree.AddEdge(2, 4)
	if !tree.IsChordal(allVertices(5)) {
		t.Error("tree should be chordal")
	}
	// Empty graph: chordal.
	if !New(4).IsChordal(allVertices(4)) {
		t.Error("empty graph should be chordal")
	}
}

func TestFillInProducesChordal(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(10, 0.25, seed)
		h, peo := g.FillIn(allVertices(10))
		if len(peo) != 10 {
			return false
		}
		// Fill-in is a supergraph of g.
		for v := 0; v < 10; v++ {
			for _, u := range g.Neighbors(v) {
				if !h.HasEdge(v, int(u)) {
					return false
				}
			}
		}
		return h.IsChordal(allVertices(10))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFillInChordalInputUnchanged(t *testing.T) {
	// A chordal input needs no fill edges.
	tri := New(4)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	tri.AddEdge(2, 3)
	h, _ := tri.FillIn(allVertices(4))
	if h.Edges() != tri.Edges() {
		t.Errorf("chordal graph gained fill edges: %d -> %d", tri.Edges(), h.Edges())
	}
}

func TestFillInC4AddsOneChord(t *testing.T) {
	c4 := New(4)
	c4.AddEdge(0, 1)
	c4.AddEdge(1, 2)
	c4.AddEdge(2, 3)
	c4.AddEdge(3, 0)
	h, _ := c4.FillIn(allVertices(4))
	if h.Edges() != 5 {
		t.Errorf("C4 fill-in has %d edges, want 5", h.Edges())
	}
	if !h.IsChordal(allVertices(4)) {
		t.Error("filled C4 should be chordal")
	}
}

func TestFillInSubsetOnly(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(4, 5)
	h, peo := g.FillIn([]int{0, 1, 2})
	if len(peo) != 3 {
		t.Fatalf("peo = %v", peo)
	}
	if h.HasEdge(4, 5) {
		t.Error("fill-in must only contain subset edges")
	}
}

func TestMaximalCliquesChordalTriangle(t *testing.T) {
	tri := New(4)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	tri.AddEdge(2, 3)
	h, peo := tri.FillIn(allVertices(4))
	cliques := MaximalCliquesChordal(h, peo)
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", cliques)
	}
	// Expect {0,1,2} and {2,3}.
	found3 := false
	found2 := false
	for _, c := range cliques {
		if len(c) == 3 && c[0] == 0 && c[1] == 1 && c[2] == 2 {
			found3 = true
		}
		if len(c) == 2 && c[0] == 2 && c[1] == 3 {
			found2 = true
		}
	}
	if !found3 || !found2 {
		t.Errorf("cliques = %v", cliques)
	}
}

func TestMaximalCliquesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(9, 0.3, seed)
		h, peo := g.FillIn(allVertices(9))
		cliques := MaximalCliquesChordal(h, peo)
		// Every clique is a clique of h.
		for _, c := range cliques {
			if !h.IsClique(c) {
				return false
			}
		}
		// Cliques cover all vertices.
		covered := make(map[int]bool)
		for _, c := range cliques {
			for _, v := range c {
				covered[v] = true
			}
		}
		if len(covered) != 9 {
			return false
		}
		// No clique is a subset of another.
		for i, a := range cliques {
			for j, b := range cliques {
				if i != j && subset(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIsClique(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	if !g.IsClique([]int{0, 1, 2}) {
		t.Error("triangle is a clique")
	}
	if g.IsClique([]int{0, 1, 3}) {
		t.Error("non-adjacent vertices are not a clique")
	}
	if !g.IsClique([]int{2}) || !g.IsClique(nil) {
		t.Error("singletons and the empty set are cliques")
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
	g := randomGraph(8, 0.4, 7)
	h, peo := g.FillIn(allVertices(8))
	a := MaximalCliquesChordal(h, peo)
	b := MaximalCliquesChordal(h, peo)
	if len(a) != len(b) {
		t.Fatal("nondeterministic clique count")
	}
	for i := range a {
		if !sort.IntsAreSorted(a[i]) {
			t.Error("clique not sorted")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic cliques")
			}
		}
	}
}

func TestLazyAdjacency(t *testing.T) {
	// A graph whose edges touch few vertices must still answer queries for
	// the untouched ones.
	g := New(1000)
	g.AddEdge(2, 3)
	if g.Degree(999) != 0 || g.HasEdge(0, 1) {
		t.Fatal("untouched vertices must look isolated")
	}
	if len(g.Neighbors(500)) != 0 {
		t.Fatal("untouched vertex has neighbors")
	}
	if !g.HasEdge(2, 3) || g.Edges() != 1 {
		t.Fatal("edge lost")
	}
	c := g.Clone()
	if !c.HasEdge(2, 3) || c.Edges() != 1 {
		t.Fatal("clone lost the edge")
	}
}
