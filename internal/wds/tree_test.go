package wds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
)

// crowdOf returns the busiest instant (most open tasks on a 2 s grid, the
// earliest of equals) of the named archetype generated at the given scale:
// every worker available then, every task published and unexpired.
func crowdOf(name string, scale float64) instant {
	a, ok := scenario.Get(name)
	if !ok {
		panic("no archetype " + name)
	}
	sc := a.Generate(scale)
	open := func(t float64) (tasks []*core.Task) {
		for _, s := range sc.Tasks {
			if s.Pub <= t && s.Exp > t {
				tasks = append(tasks, s)
			}
		}
		return tasks
	}
	best, most := sc.T0, -1
	for t := sc.T0; t < sc.T1; t += 2 {
		if n := len(open(t)); n > most {
			best, most = t, n
		}
	}
	in := instant{name: fmt.Sprintf("%s/%gx", name, scale), now: best, tasks: open(best)}
	for _, w := range sc.Workers {
		if w.Available(best) {
			in.workers = append(in.workers, w)
		}
	}
	return in
}

// crowdOpts are the planner's WDS options on the atlas crowds.
var crowdOpts = Options{Travel: geo.NewTravelModel(0)}

// sameTree asserts two RTC trees have the same shape and, node for node, the
// same Index and ID.
func sameTree(t *testing.T, label string, got, want *TreeNode) {
	t.Helper()
	if !slices.Equal(got.Index, want.Index) || got.ID != want.ID || len(got.Children) != len(want.Children) {
		t.Fatalf("%s: node %d %v with %d children, reference node %d %v with %d",
			label, got.ID, got.Index, len(got.Children), want.ID, want.Index, len(want.Children))
	}
	for i := range got.Children {
		sameTree(t, label, got.Children[i], want.Children[i])
	}
}

// TestTreeMatchesReference holds Components and Tree to the construction
// they replaced (refForest, reference_test.go): the component lists, every
// tree's shape and every node's Index and ID, Σ|Q_w| and the dependency
// graph's edge count equal the reference's. The instances cover random dense
// crowds, a sparse giant component (the scaledInstance shape), a scatter of
// one- and two-worker components, components past 64 workers (bit rows of
// more than one word), the K = 5 siblings of a tagged pool and the
// event-spike crowds the planner meets, all through one Separator.
func TestTreeMatchesReference(t *testing.T) {
	type tc struct {
		name    string
		workers []*core.Worker
		tasks   []*core.Task
		now     float64
		o       Options
		k       int
	}
	var cases []tc
	for _, seed := range []int64{3, 8, 21} {
		ws, ts := randomInstance(seed, 80, 120, 1.5)
		cases = append(cases, tc{fmt.Sprintf("dense/%d", seed), ws, ts, 0, opts, 1})
	}
	ws, ts := randomInstance(5, 150, 300, 3)
	cases = append(cases, tc{"wide", ws, ts, 0, opts, 1})
	ws, ts = randomInstance(13, 300, 200, 40)
	cases = append(cases, tc{"scattered-small", ws, ts, 0, opts, 1})
	ws, ts = scaledInstance(1000, 4000)
	cases = append(cases, tc{"giant", ws, ts, 0, Options{Travel: geo.NewTravelModel(0.005), MaxSeqLen: 2}, 1})
	const k = 5
	for _, seed := range []int64{7, 19} {
		ws, ts := randomInstance(seed, 60, 300, 5)
		r := rand.New(rand.NewSource(seed))
		for i, s := range ts {
			if i%3 == 0 {
				s.Virtual, s.SampleBits = true, uint64(r.Intn(1<<k))
			}
		}
		cases = append(cases, tc{fmt.Sprintf("scenarios/%d", seed), ws, ts, 0, opts, k})
	}
	for _, scale := range []float64{1.5, 5} {
		c := crowdOf("event-spike", scale)
		cases = append(cases, tc{c.name, c.workers, c.tasks, c.now, crowdOpts, 1})
	}

	var sp Separator
	var small, wide, deep int
	for _, c := range cases {
		seps := sp.Scenarios(c.workers, c.tasks, c.now, c.o, c.k)
		for s := range seps {
			sep := &seps[s]
			label := fmt.Sprintf("%s scenario %d", c.name, s)
			flat, offs := sp.Components(sep)
			var trees []*TreeNode
			for i := 0; i+1 < len(offs); i++ {
				trees = append(trees, sp.Tree(flat[offs[i]:offs[i+1]]))
			}
			comps, forest, sequences, edges := refSeparate(sep)
			if len(comps) != len(offs)-1 {
				t.Fatalf("%s: %d components, reference %d", label, len(offs)-1, len(comps))
			}
			for i, want := range comps {
				got := flat[offs[i]:offs[i+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("%s: component %d = %v, reference %v", label, i, got, want)
				}
				sameTree(t, fmt.Sprintf("%s tree %d", label, i), trees[i], forest[i])
				switch {
				case len(got) <= 2:
					small++
				case len(got) > 64:
					wide++
				}
				if trees[i].Depth() >= 3 {
					deep++
				}
			}
			if sep.Sequences != sequences || sep.Graph.Edges() != edges {
				t.Fatalf("%s: %d sequences and %d edges, reference %d and %d",
					label, sep.Sequences, sep.Graph.Edges(), sequences, edges)
			}
		}
	}
	if small < 100 || wide < 3 || deep < 10 {
		t.Fatalf("coverage: %d components of ≤ 2 workers, %d of > 64, %d trees of depth ≥ 3", small, wide, deep)
	}
}

// TestComponentsTreeAllocs holds the graph and forest stages of a warm
// Separator on the event-spike 1.5x and 5x crowds to the allocations they
// made when trees were built over CSR edge lists; what is left is the
// Children slices of the trees themselves.
func TestComponentsTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, c := range []struct {
		scale  float64
		parent float64 // allocations per call at the CSR construction
	}{{1.5, 24}, {5, 106}} {
		crowd := crowdOf("event-spike", c.scale)
		var sp Separator
		sep := &sp.Scenarios(crowd.workers, crowd.tasks, crowd.now, crowdOpts, 1)[0]
		run := func() {
			sp.b.reset()
			flat, offs := sp.Components(sep)
			for i := 0; i+1 < len(offs); i++ {
				sp.Tree(flat[offs[i]:offs[i+1]])
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > c.parent {
			t.Errorf("%s: %v allocations a call, %v with CSR edge lists", crowd.name, got, c.parent)
		}
	}
}
