package wds

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
)

// instantsOf returns the busiest instant (most open tasks on a 2 s grid, the
// earliest of equals) and the median one of the archetype generated at the
// given scale: every worker available then, every task published and
// unexpired.
func instantsOf(a scenario.Archetype, scale float64) []instant {
	sc := a.Generate(scale)
	open := func(t float64) (tasks []*core.Task) {
		for _, s := range sc.Tasks {
			if s.Pub <= t && s.Exp > t {
				tasks = append(tasks, s)
			}
		}
		return tasks
	}
	type load struct {
		t    float64
		open int
	}
	var grid []load
	for t := sc.T0; t < sc.T1; t += 2 {
		grid = append(grid, load{t, len(open(t))})
	}
	slices.SortStableFunc(grid, func(x, y load) int { return y.open - x.open })
	var out []instant
	for k, l := range []load{grid[0], grid[len(grid)/2]} {
		in := instant{name: a.Name + []string{"/crowd", "/median"}[k], now: l.t, tasks: open(l.t)}
		for _, w := range sc.Workers {
			if w.Available(l.t) {
				in.workers = append(in.workers, w)
			}
		}
		out = append(out, in)
	}
	return out
}

// crowdOf is the named archetype's busiest instant at the given scale.
func crowdOf(name string, scale float64) instant {
	a, _ := scenario.Get(name)
	in := instantsOf(a, scale)[0]
	in.name = fmt.Sprintf("%s/%gx", name, scale)
	return in
}

// crowdOpts are the planner's WDS options on the atlas crowds.
var crowdOpts = Options{Travel: geo.NewTravelModel(0)}

var update = flag.Bool("update", false, "rewrite testdata/tree.pins from this run")

// treeRow is what the pins hold of one Separation's components and forest:
// a hash of the component lists and of every tree node, in pre-order, with its
// Index, ID and child count; Σ|Q_w|; and the dependency graph's edge count.
func treeRow(sep *Separation, flat []int, offs []int32, trees []*TreeNode) string {
	h := fnv.New64a()
	for i := 0; i+1 < len(offs); i++ {
		fmt.Fprintln(h, flat[offs[i]:offs[i+1]])
	}
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		fmt.Fprintln(h, n.Index, n.ID, len(n.Children))
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range trees {
		walk(root)
	}
	return fmt.Sprintf("components=%d forest=%016x sequences=%d edges=%d", len(offs)-1, h.Sum64(), sep.Sequences, sep.Graph.Edges())
}

// TestTreeMatchesReference holds Components and Tree to Section IV-A and to
// their pins (testdata/tree.pins). The components are the connected
// components of the share-a-task relation, found here by a naive union-find
// over the reachable sets, so a worker that reaches no task, off shift or
// not, is in none; each tree holds its component's workers once; a node's
// workers are a clique of the chordal completion of the workers under it, and
// workers in sibling subtrees share no task. What the definition leaves open —
// which clique becomes a node, its tie-break — the pins hold: every node's
// Index and ID, the component lists, Σ|Q_w| and the edge count. The instances
// cover random dense crowds, a sparse giant component (the scaledInstance
// shape), a scatter of one- and two-worker components, components past 64
// workers (bit rows of more than one word), the K = 5 siblings of a tagged
// pool and the event-spike crowds the planner meets, all through one
// Separator.
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
		// Two workers reach nothing: one off shift, one with every task out
		// of reach. Neither is in a component or a tree.
		ws = append(ws, worker(81, 0.7, 0.7, 0.8, 0, -1), worker(82, 40, 40, 0.8, 0, 1e5))
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

	// Every case at Parallelism 1, then 0, through one Separator: the second
	// pass is warm, and both must produce the same rows.
	var sp Separator
	var small, wide, deep int
	var pins [2]strings.Builder
	for i, c := range slices.Concat(cases, cases) {
		half := i / len(cases) // 0 at Parallelism 1, 1 at Parallelism 0
		o := c.o
		o.Parallelism = 1 - half
		seps := sp.Scenarios(c.workers, c.tasks, c.now, o, c.k)
		for s := range seps {
			sep := &seps[s]
			label := fmt.Sprintf("%s scenario %d", c.name, s)
			flat, offs := sp.Components(sep)
			var trees []*TreeNode
			for i := 0; i+1 < len(offs); i++ {
				trees = append(trees, sp.Tree(flat[offs[i]:offs[i+1]]))
			}
			fmt.Fprintf(&pins[half], "%s\t%s\n", label, treeRow(sep, flat, offs, trees))

			// The share-a-task relation over the reachable sets, and its
			// components by union-find: each listed ascending, in the order
			// of their smallest worker.
			share := func(a, b int) bool {
				for _, x := range sep.Sets[a].Index {
					if slices.Contains(sep.Sets[b].Index, x) {
						return true
					}
				}
				return false
			}
			parent := make([]int, len(sep.Workers))
			var find func(v int) int
			find = func(v int) int {
				if parent[v] != v {
					parent[v] = find(parent[v])
				}
				return parent[v]
			}
			owner := make(map[int32]int) // task → the first worker reaching it
			for v := range parent {
				parent[v] = v
				for _, x := range sep.Sets[v].Index {
					if u, ok := owner[x]; ok {
						parent[find(v)] = find(u)
					} else {
						owner[x] = v
					}
				}
			}
			var comps [][]int
			at := make(map[int]int)
			for v := range parent {
				if len(sep.Sets[v].Index) == 0 {
					continue
				}
				r, ok := at[find(v)]
				if !ok {
					r = len(comps)
					at[find(v)] = r
					comps = append(comps, nil)
				}
				comps[r] = append(comps[r], v)
			}
			if len(comps) != len(trees) {
				t.Fatalf("%s: %d components, the share-a-task relation has %d", label, len(trees), len(comps))
			}
			for i, want := range comps {
				got := flat[offs[i]:offs[i+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("%s: component %d = %v, the share-a-task relation's is %v", label, i, got, want)
				}
				held := trees[i].AppendIndex(nil)
				slices.Sort(held)
				if !slices.EqualFunc(held, want, func(a int32, b int) bool { return int(a) == b }) {
					t.Fatalf("%s: tree %d holds %v, its component %v", label, i, held, want)
				}
				// A node is a clique of the chordal completion of the workers
				// under it, the residual component it was chosen from (fill
				// edges join workers that share no task, so it need not be
				// one of the relation itself), and its subtrees share no task.
				var node func(n *TreeNode)
				node = func(n *TreeNode) {
					var under []int
					for _, v := range n.AppendIndex(nil) {
						under = append(under, int(v))
					}
					filled, _ := sep.Graph.FillIn(under)
					for a, u := range n.Index {
						for _, v := range n.Index[a+1:] {
							if !filled.HasEdge(int(u), int(v)) {
								t.Fatalf("%s: node %d joins workers %d and %d, not adjacent in the chordal completion", label, n.ID, u, v)
							}
						}
					}
					for a, x := range n.Children {
						for _, y := range n.Children[a+1:] {
							for _, u := range x.AppendIndex(nil) {
								for _, v := range y.AppendIndex(nil) {
									if share(int(u), int(v)) {
										t.Fatalf("%s: workers %d and %d share a task across sibling subtrees", label, u, v)
									}
								}
							}
						}
						node(x)
					}
				}
				node(trees[i])
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
		}
	}
	if pins[0].String() != pins[1].String() {
		t.Fatalf("rows at Parallelism 1:\n%s\nat 0:\n%s", pins[0].String(), pins[1].String())
	}
	if small < 200 || wide < 6 || deep < 20 { // each counted at both settings
		t.Fatalf("coverage: %d components of ≤ 2 workers, %d of > 64, %d trees of depth ≥ 3", small, wide, deep)
	}

	const path, cmd = "testdata/tree.pins", "go test ./internal/wds -run '^TestTreeMatchesReference$' -update"
	got := "# Golden rows of TestTreeMatchesReference, one per (instance, scenario): a\n" +
		"# hash of the component lists and of every tree node's Index, ID and child\n" +
		"# count, Σ|Q_w| and the graph's edge count. Regenerate with\n#   " + cmd + "\n" + pins[0].String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		if g, w := append(g, "")[min(i, len(g))], append(w, "")[min(i, len(w))]; g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s\nIf the change is meant, run %s and commit the diff.", path, i+1, g, w, cmd)
		}
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
