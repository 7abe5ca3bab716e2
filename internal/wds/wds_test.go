package wds

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

var opts = Options{Travel: geo.NewTravelModel(0.01)} // 10 m/s

func task(id int, x, y, pub, exp float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: exp, Cell: -1}
}

func worker(id int, x, y, reach, on, off float64) *core.Worker {
	return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: on, Off: off}
}

func TestReachableTasksConstraints(t *testing.T) {
	w := worker(1, 0, 0, 1.0, 0, 500)
	tasks := []*core.Task{
		task(1, 0.5, 0, 0, 1000),  // fine: 50 s travel
		task(2, 0.5, 0, 0, 40),    // violates (i): needs 50 s, expires in 40
		task(3, 0, 0.9, 0, 1000),  // fine: 90 s travel, within reach 1.0
		task(4, 2.0, 0, 0, 1000),  // violates (iii): 2 km > 1 km reach
		task(5, 0.5, 0.5, 0, -10), // already expired
	}
	rs := ReachableTasks(w, tasks, 0, opts)
	if len(rs) != 2 {
		t.Fatalf("reachable = %d tasks, want 2", len(rs))
	}
	if rs[0].ID != 1 || rs[1].ID != 3 {
		t.Errorf("reachable ids = %d,%d (sorted by distance)", rs[0].ID, rs[1].ID)
	}
}

func TestReachableTasksWindowConstraint(t *testing.T) {
	// Worker goes offline in 60 s: a task 1 km away (100 s) violates (ii).
	w := worker(1, 0, 0, 5, 0, 60)
	tasks := []*core.Task{task(1, 1, 0, 0, 1e9)}
	if rs := ReachableTasks(w, tasks, 0, opts); len(rs) != 0 {
		t.Errorf("task beyond availability window should be unreachable, got %d", len(rs))
	}
	// Same worker with a later off time reaches it.
	w.Off = 200
	if rs := ReachableTasks(w, tasks, 0, opts); len(rs) != 1 {
		t.Errorf("task within window should be reachable")
	}
}

func TestReachableTasksUnavailableWorker(t *testing.T) {
	w := worker(1, 0, 0, 1, 100, 200)
	tasks := []*core.Task{task(1, 0.1, 0, 0, 1e9)}
	if rs := ReachableTasks(w, tasks, 0, opts); rs != nil {
		t.Error("worker before its on time should reach nothing")
	}
	if rs := ReachableTasks(w, tasks, 250, opts); rs != nil {
		t.Error("worker after its off time should reach nothing")
	}
}

func TestReachableTasksCap(t *testing.T) {
	w := worker(1, 0, 0, 5, 0, 1e9)
	var tasks []*core.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, task(i, float64(i+1)*0.01, 0, 0, 1e9))
	}
	o := opts
	o.MaxReachable = 5
	rs := ReachableTasks(w, tasks, 0, o)
	if len(rs) != 5 {
		t.Fatalf("capped reachable = %d", len(rs))
	}
	// The nearest five.
	for i, s := range rs {
		if s.ID != i {
			t.Errorf("cap should keep nearest: got id %d at %d", s.ID, i)
		}
	}
}

func TestMaximalValidSequencesMinCompletion(t *testing.T) {
	// Tasks at x=1 and x=2: visiting 1 then 2 takes 200 s; 2 then 1 takes
	// 300 s. Eq. 10 keeps the 200 s ordering for the {1,2} set.
	w := worker(1, 0, 0, 5, 0, 1e9)
	rs := []*core.Task{task(1, 1, 0, 0, 1e9), task(2, 2, 0, 0, 1e9)}
	qs := MaximalValidSequences(w, rs, 0, opts)
	// Expect: the pair (longest first), then both singletons.
	if len(qs) != 3 {
		t.Fatalf("|Q_w| = %d, want 3", len(qs))
	}
	if len(qs[0]) != 2 || qs[0][0].ID != 1 || qs[0][1].ID != 2 {
		t.Errorf("best pair order = %v", qs[0].IDs())
	}
	got := core.CompletionTime(w.Loc, 0, qs[0], opts.Travel)
	if math.Abs(got-200) > 1e-9 {
		t.Errorf("pair completion = %v, want 200", got)
	}
}

func TestMaximalValidSequencesRespectsExpiry(t *testing.T) {
	// Task 2 expires early, so it must be visited first even though task 1
	// is nearer; the (1,2) ordering is invalid: 90 s to task 1 plus ~134 s
	// across exceeds task 2's 200 s deadline.
	w := worker(1, 0, 0, 5, 0, 1e9)
	rs := []*core.Task{task(1, 0.9, 0, 0, 1e9), task(2, 0, 1, 0, 200)}
	qs := MaximalValidSequences(w, rs, 0, opts)
	for _, q := range qs {
		if len(q) == 2 {
			if q[0].ID != 2 {
				t.Errorf("pair must visit the expiring task first: %v", q.IDs())
			}
			return
		}
	}
	t.Error("expected a valid pair (2,1)")
}

func TestMaximalValidSequencesAllValid(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		w := worker(1, r.Float64(), r.Float64(), 0.5+r.Float64(), 0, 100+r.Float64()*500)
		var rs []*core.Task
		for i := 0; i < 5; i++ {
			rs = append(rs, task(i, r.Float64()*2, r.Float64()*2, 0, 50+r.Float64()*500))
		}
		rs = ReachableTasks(w, rs, 0, opts)
		for _, q := range MaximalValidSequences(w, rs, 0, opts) {
			if !core.ValidSequence(w, 0, q, opts.Travel) {
				t.Fatalf("generated invalid sequence %v", q.IDs())
			}
		}
	}
}

func TestMaximalValidSequencesDedupMatchesBruteForce(t *testing.T) {
	// For every returned set, no permutation of the same set completes
	// earlier (Eq. 10), verified by brute force.
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		w := worker(1, r.Float64(), r.Float64(), 2, 0, 1e9)
		var rs []*core.Task
		for i := 0; i < 4; i++ {
			rs = append(rs, task(i, r.Float64(), r.Float64(), 0, 100+r.Float64()*1000))
		}
		qs := MaximalValidSequences(w, rs, 0, opts)
		seen := make(map[string]bool)
		for _, q := range qs {
			key := q.SetKey()
			if seen[key] {
				t.Fatal("duplicate set in Q_w")
			}
			seen[key] = true
			best := core.CompletionTime(w.Loc, 0, q, opts.Travel)
			permute(q, func(p core.Sequence) {
				if core.ValidSequence(w, 0, p, opts.Travel) {
					if c := core.CompletionTime(w.Loc, 0, p, opts.Travel); c < best-1e-9 {
						t.Fatalf("found better ordering %v (%.1f < %.1f)", p.IDs(), c, best)
					}
				}
			})
		}
	}
}

func permute(q core.Sequence, visit func(core.Sequence)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(q) {
			visit(q)
			return
		}
		for i := k; i < len(q); i++ {
			q[k], q[i] = q[i], q[k]
			rec(k + 1)
			q[k], q[i] = q[i], q[k]
		}
	}
	rec(0)
}

func TestMaximalValidSequencesLengthCap(t *testing.T) {
	w := worker(1, 0, 0, 5, 0, 1e9)
	var rs []*core.Task
	for i := 0; i < 6; i++ {
		rs = append(rs, task(i, 0.1*float64(i+1), 0, 0, 1e9))
	}
	o := opts
	o.MaxSeqLen = 2
	for _, q := range MaximalValidSequences(w, rs, 0, o) {
		if len(q) > 2 {
			t.Fatalf("sequence of length %d exceeds cap", len(q))
		}
	}
	o.MaxSequences = 4
	if got := len(MaximalValidSequences(w, rs, 0, o)); got != 4 {
		t.Errorf("MaxSequences cap: got %d", got)
	}
}

func TestSeparateIndependentClusters(t *testing.T) {
	// Two pairs of workers around two distant hotspots sharing tasks only
	// within each pair → two components, each one tree.
	workers := []*core.Worker{
		worker(0, 0, 0, 1, 0, 1e5),
		worker(1, 0.1, 0, 1, 0, 1e5),
		worker(2, 10, 10, 1, 0, 1e5),
		worker(3, 10.1, 10, 1, 0, 1e5),
	}
	tasks := []*core.Task{
		task(1, 0.05, 0, 0, 1e5),
		task(2, 10.05, 10, 0, 1e5),
	}
	sep := Separate(workers, tasks, 0, opts)
	if len(sep.Forest) != 2 {
		t.Fatalf("forest size = %d, want 2", len(sep.Forest))
	}
	if !sep.Graph.HasEdge(0, 1) || !sep.Graph.HasEdge(2, 3) {
		t.Error("workers sharing a task must be dependent")
	}
	if sep.Graph.HasEdge(0, 2) || sep.Graph.HasEdge(1, 3) {
		t.Error("workers in different hotspots must be independent")
	}
}

// TestSeparateTreeCoversAllWorkersOnce: every worker that reaches a task is in
// exactly one tree of the forest, and no other worker is in any — neither one
// off shift nor one on shift with every task out of its reach.
func TestSeparateTreeCoversAllWorkersOnce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		var workers []*core.Worker
		for i := 0; i < 12; i++ {
			workers = append(workers, worker(i, r.Float64()*3, r.Float64()*3, 0.8, 0, 1e5))
		}
		workers = append(workers, worker(12, 1.5, 1.5, 0.8, 0, -1), worker(13, 40, 40, 0.8, 0, 1e5))
		var tasks []*core.Task
		for i := 0; i < 25; i++ {
			tasks = append(tasks, task(i, r.Float64()*3, r.Float64()*3, 0, 1e5))
		}
		sep := Separate(workers, tasks, 0, opts)
		seen := make(map[int]int)
		for _, root := range sep.Forest {
			for _, w := range workersOf(sep, root) {
				seen[w.ID]++
			}
		}
		reaching := 0
		for i, w := range workers {
			want := 0
			if len(sep.Sets[i].Index) > 0 {
				want = 1
				reaching++
			}
			if seen[w.ID] != want {
				t.Fatalf("worker %d reaches %d tasks and appears %d times", w.ID, len(sep.Sets[i].Index), seen[w.ID])
			}
		}
		if reaching < 2 || reaching > len(workers)-2 {
			t.Fatalf("%d of %d workers reach a task", reaching, len(workers))
		}
	}
}

func TestSeparateSiblingIndependence(t *testing.T) {
	// Property ii of the RTC tree: no dependency edge crosses sibling
	// subtrees.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		var workers []*core.Worker
		for i := 0; i < 14; i++ {
			workers = append(workers, worker(i, r.Float64()*4, r.Float64()*4, 0.7, 0, 1e5))
		}
		var tasks []*core.Task
		for i := 0; i < 30; i++ {
			tasks = append(tasks, task(i, r.Float64()*4, r.Float64()*4, 0, 1e5))
		}
		sep := Separate(workers, tasks, 0, opts)
		idx := make(map[int]int) // worker id → graph vertex
		for i, w := range workers {
			idx[w.ID] = i
		}
		var check func(n *TreeNode)
		check = func(n *TreeNode) {
			for i := 0; i < len(n.Children); i++ {
				for j := i + 1; j < len(n.Children); j++ {
					for _, a := range workersOf(sep, n.Children[i]) {
						for _, b := range workersOf(sep, n.Children[j]) {
							if sep.Graph.HasEdge(idx[a.ID], idx[b.ID]) {
								t.Fatalf("edge between sibling subtrees: %d-%d", a.ID, b.ID)
							}
						}
					}
				}
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		for _, root := range sep.Forest {
			check(root)
		}
	}
}

func TestSeparateDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var workers []*core.Worker
	for i := 0; i < 10; i++ {
		workers = append(workers, worker(i, r.Float64()*2, r.Float64()*2, 1, 0, 1e5))
	}
	var tasks []*core.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, task(i, r.Float64()*2, r.Float64()*2, 0, 1e5))
	}
	flatten := func(sep *Separation) []int {
		var out []int
		var rec func(n *TreeNode)
		rec = func(n *TreeNode) {
			for _, wi := range n.Index {
				out = append(out, sep.Workers[wi].ID)
			}
			out = append(out, -1)
			for _, c := range n.Children {
				rec(c)
			}
		}
		for _, root := range sep.Forest {
			rec(root)
		}
		return out
	}
	a := flatten(Separate(workers, tasks, 0, opts))
	b := flatten(Separate(workers, tasks, 0, opts))
	if len(a) != len(b) {
		t.Fatal("nondeterministic separation")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic tree structure")
		}
	}
}

func TestTreeNodeHelpers(t *testing.T) {
	leaf := &TreeNode{Index: []int32{2}}
	root := &TreeNode{Index: []int32{0, 1}, Children: []*TreeNode{leaf}}
	if root.Size() != 3 {
		t.Errorf("Size = %d", root.Size())
	}
	if root.Depth() != 2 {
		t.Errorf("Depth = %d", root.Depth())
	}
	var nilNode *TreeNode
	if nilNode.Depth() != 0 || nilNode.Size() != 0 {
		t.Error("nil node helpers")
	}
}

// reachOf resolves worker i's reachable set to its tasks, nearest first.
func reachOf(sep *Separation, i int) []*core.Task {
	var rs []*core.Task
	for _, t := range sep.Sets[i].Index {
		rs = append(rs, sep.Tasks[t])
	}
	return rs
}

// seqsOf resolves worker i's Q_w to task sequences, in Q_w order.
func seqsOf(sep *Separation, i int) []core.Sequence {
	q := make([]core.Sequence, len(sep.Sets[i].Masks))
	for k := range q {
		q[k] = slices.Clip(sep.Sets[i].AppendSeq(nil, sep.Tasks, k))
	}
	return q
}

// workersOf resolves the workers of the subtree under n, in pre-order and by
// id within a node.
func workersOf(sep *Separation, n *TreeNode) []*core.Worker {
	var ws []*core.Worker
	for _, wi := range n.AppendIndex(nil) {
		ws = append(ws, sep.Workers[wi])
	}
	return ws
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MaxSeqLen <= 0 || o.MaxReachable <= 0 || o.MaxSequences <= 0 || o.Travel.Speed <= 0 {
		t.Errorf("defaults missing: %+v", o)
	}
	o2 := Options{MaxSeqLen: 9}.WithDefaults()
	if o2.MaxSeqLen != 9 {
		t.Error("explicit value clobbered")
	}
}

// randomInstance builds a reproducible scattered worker/task population.
func randomInstance(seed int64, nWorkers, nTasks int, span float64) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(seed))
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, worker(i+1, r.Float64()*span, r.Float64()*span,
			0.2+r.Float64()*0.8, 0, 200+r.Float64()*800))
	}
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		ts = append(ts, task(i+1, r.Float64()*span, r.Float64()*span, 0, 100+r.Float64()*900))
	}
	return ws, ts
}

// sameSeparation asserts two separations agree on reachable sets, sequences,
// and forest structure.
func sameSeparation(t *testing.T, a, b *Separation) {
	t.Helper()
	for i, w := range a.Workers {
		ra, rb := reachOf(a, i), reachOf(b, i)
		if len(ra) != len(rb) {
			t.Fatalf("worker %d: reachable %d vs %d", w.ID, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].ID != rb[i].ID {
				t.Fatalf("worker %d: reachable[%d] = %d vs %d", w.ID, i, ra[i].ID, rb[i].ID)
			}
		}
		qa, qb := seqsOf(a, i), seqsOf(b, i)
		if len(qa) != len(qb) {
			t.Fatalf("worker %d: |Q| %d vs %d", w.ID, len(qa), len(qb))
		}
		for i := range qa {
			ia, ib := qa[i].IDs(), qb[i].IDs()
			if len(ia) != len(ib) {
				t.Fatalf("worker %d: Q[%d] length differs", w.ID, i)
			}
			for j := range ia {
				if ia[j] != ib[j] {
					t.Fatalf("worker %d: Q[%d][%d] = %d vs %d", w.ID, i, j, ia[j], ib[j])
				}
			}
		}
	}
	if len(a.Forest) != len(b.Forest) {
		t.Fatalf("forest size %d vs %d", len(a.Forest), len(b.Forest))
	}
	var flatten func(sep *Separation, n *TreeNode) []int
	flatten = func(sep *Separation, n *TreeNode) []int {
		var ids []int
		for _, wi := range n.Index {
			ids = append(ids, sep.Workers[wi].ID)
		}
		ids = append(ids, -1) // structure marker
		for _, c := range n.Children {
			ids = append(ids, flatten(sep, c)...)
		}
		return ids
	}
	for i := range a.Forest {
		fa, fb := flatten(a, a.Forest[i]), flatten(b, b.Forest[i])
		if len(fa) != len(fb) {
			t.Fatalf("tree %d shape differs", i)
		}
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("tree %d node %d: %d vs %d", i, j, fa[j], fb[j])
			}
		}
	}
}

// TestSeparateIndexedMatchesBruteForce: the grid index Separate builds
// changes only what a reachable set costs. Every worker's RS_w is the one a
// scan of the whole pool answers (ReachableTasks), in the same order, and Q_w
// the sequences generated from it.
func TestSeparateIndexedMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{7, 19, 51} {
		ws, ts := randomInstance(seed, 60, 300, 5)
		sep := Separate(ws, ts, 0, opts)
		for i, w := range ws {
			rs := ReachableTasks(w, ts, 0, opts)
			if !slices.Equal(reachOf(sep, i), rs) {
				t.Fatalf("seed %d worker %d: RS_w of %d tasks differs from the scan's %d", seed, w.ID, len(sep.Sets[i].Index), len(rs))
			}
			if !slices.EqualFunc(seqsOf(sep, i), MaximalValidSequences(w, rs, 0, opts), slices.Equal) {
				t.Fatalf("seed %d worker %d: Q_w differs from the scan's", seed, w.ID)
			}
		}
	}
}

// TestScenariosMatchSeparateOnFilteredPools holds the staged entry points to
// the pipeline they were cut from: scenario s of a tagged pool, separated as a
// view of the one pool beside its siblings — trees taken over from the sibling
// that built them, as a planner would — is the Separation of a copy of the pool
// holding scenario s's tasks only: same reachable sets, sequences and forest,
// the pool positions mapping onto the copy's in order.
func TestScenariosMatchSeparateOnFilteredPools(t *testing.T) {
	const k = 5
	for _, seed := range []int64{7, 19, 51} {
		ws, ts := randomInstance(seed, 60, 300, 5)
		r := rand.New(rand.NewSource(seed))
		for i, s := range ts {
			if i%3 == 0 {
				s.Virtual, s.SampleBits = true, uint64(r.Intn(1<<k)) // 0 among them: untagged
			}
		}
		var sp Separator
		seps := sp.Scenarios(ws, ts, 0, opts, k)
		shared, trees := 0, map[string]*TreeNode{}
		for s := range seps {
			var pool []*core.Task
			var at []int32 // pool position → position in the copy
			for _, task := range ts {
				at = append(at, int32(len(pool)))
				if task.SampleBits == 0 || task.SampleBits>>uint(s)&1 != 0 {
					pool = append(pool, task)
				}
			}
			want := Separate(ws, pool, 0, opts)

			sep := &seps[s]
			flat, offs := sp.Components(sep)
			for i := 0; i+1 < len(offs); i++ {
				comp := flat[offs[i]:offs[i+1]]
				key := fmt.Sprint(comp)
				for _, wi := range comp {
					key += fmt.Sprint(" ", sep.first[wi])
				}
				if trees[key] == nil {
					trees[key] = sp.Tree(comp)
				} else {
					shared++
				}
				sep.Forest = append(sep.Forest, trees[key])
			}
			sameSeparation(t, want, sep)
			if sep.Sequences != want.Sequences || sep.Graph.Edges() != want.Graph.Edges() {
				t.Fatalf("scenario %d: %d sequences and %d edges, the copy has %d and %d",
					s, sep.Sequences, sep.Graph.Edges(), want.Sequences, want.Graph.Edges())
			}
			for i := range sep.Sets {
				for j, pos := range sep.Sets[i].Index {
					if at[pos] != want.Sets[i].Index[j] || !slices.Equal(sep.Sets[i].Masks, want.Sets[i].Masks) {
						t.Fatalf("scenario %d worker %d: positions %v, the copy's %v", s, i, sep.Sets[i].Index, want.Sets[i].Index)
					}
				}
				if s > 0 && sep.SharesSets(&seps[0], i) != slices.Equal(sep.Sets[i].Index, seps[0].Sets[i].Index) {
					t.Fatalf("scenario %d worker %d: SharesSets disagrees with the sets", s, i)
				}
			}
			if s > 0 && seps[s-1].Graph != nil {
				t.Fatalf("scenario %d still claims the graph", s-1)
			}
		}
		if shared == 0 {
			t.Fatal("no component recurred: the pool exercises no sharing")
		}
	}
}

// TestSeparateEmptyWork covers the loops with nothing to do — nobody on
// shift, nobody reaching anything. With nothing to reach, nobody is in a
// tree: the forest is empty.
func TestSeparateEmptyWork(t *testing.T) {
	ws, ts := randomInstance(5, 20, 40, 4)
	var sp Separator
	if sep := sp.Separate(ws, nil, 0, opts); sep.Sequences != 0 || len(sep.Forest) != 0 || sep.Graph.N() != len(ws) {
		t.Fatalf("no tasks: %d sequences, %d trees, %d vertices", sep.Sequences, len(sep.Forest), sep.Graph.N())
	}
	for _, w := range ws {
		w.Off = -1
	}
	if sep := sp.Separate(ws, ts, 0, opts); sep.Sequences != 0 || len(sep.Forest) != 0 {
		t.Fatalf("nobody on shift: %d sequences, %d trees", sep.Sequences, len(sep.Forest))
	}
	if sep := sp.Separate(nil, ts, 0, opts); sep.Sequences != 0 || len(sep.Forest) != 0 {
		t.Fatalf("no workers: %d sequences, %d trees", sep.Sequences, len(sep.Forest))
	}
}

func TestReachableTasksIndexedMatches(t *testing.T) {
	ws, ts := randomInstance(91, 30, 250, 4)
	ix := spatial.NewIndex(ts, spatial.CellSizeForReach(ws))
	for _, w := range ws {
		a := ReachableTasks(w, ts, 0, opts)
		b := ReachableTasksIndexed(w, ix, 0, opts)
		if len(a) != len(b) {
			t.Fatalf("worker %d: %d vs %d reachable", w.ID, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("worker %d: reachable[%d] = %d vs %d", w.ID, i, a[i].ID, b[i].ID)
			}
		}
	}
	// Zero-reach worker: only colocated tasks, via both paths.
	zw := worker(999, ts[0].Loc.X, ts[0].Loc.Y, 0, 0, 1e5)
	a := ReachableTasks(zw, ts, 0, opts)
	b := ReachableTasksIndexed(zw, ix, 0, opts)
	if len(a) != len(b) {
		t.Fatalf("zero-reach worker: %d vs %d", len(a), len(b))
	}
}

// TestSeparationDenseIndices pins the hand-off contract the search relies
// on: Masks[j] is exactly Seqs[j]'s task set over the positions of Index, and
// a tree node lists its workers by id, numbered in pre-order — at the default
// MaxReachable and at the widest, 64.
func TestSeparationDenseIndices(t *testing.T) {
	for _, maxReach := range []int{0, 64} {
		ws, ts := randomInstance(33, 40, 600, 3)
		o := opts
		o.MaxReachable = maxReach
		o.MaxSeqLen = 2
		sep := Separate(ws, ts, 0, o)
		full := false
		for i := range sep.Workers {
			set, rs, seqs := &sep.Sets[i], reachOf(sep, i), seqsOf(sep, i)
			full = full || len(set.Index) == 64
			if len(set.Masks) != len(seqs) {
				t.Fatalf("worker %d: %d masks for %d sequences", i, len(set.Masks), len(seqs))
			}
			for j, q := range seqs {
				var want uint64
				for _, s := range q {
					want |= 1 << uint(slices.Index(rs, s))
				}
				if set.Masks[j] != want {
					t.Fatalf("worker %d sequence %d: mask %x, want %x", i, j, set.Masks[j], want)
				}
			}
		}
		if full != (maxReach == 64) {
			t.Fatalf("MaxReachable %d: a worker with 64 tasks in reach = %v", maxReach, full)
		}
		next := int32(0)
		var check func(n *TreeNode)
		check = func(n *TreeNode) {
			if n.ID != next {
				t.Fatalf("node ID %d, want pre-order position %d", n.ID, next)
			}
			next++
			if !slices.IsSortedFunc(n.Index, func(a, b int32) int { return sep.Workers[a].ID - sep.Workers[b].ID }) {
				t.Fatalf("node %d lists its workers out of id order", n.ID)
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		for _, root := range sep.Forest {
			next = 0
			check(root)
			if got := root.AppendIndex(nil); len(got) != root.Size() {
				t.Fatalf("AppendIndex returned %d positions for a subtree of %d", len(got), root.Size())
			}
		}
	}
}

// TestReachableSetIsOneWord pins the boundary every mask row relies on: asking
// for more than 64 reachable tasks is asking for 64, through the options and
// through the exported generator alike.
func TestReachableSetIsOneWord(t *testing.T) {
	if got := (Options{MaxReachable: 70}).WithDefaults().MaxReachable; got != 64 {
		t.Fatalf("MaxReachable 70 defaults to %d, want 64", got)
	}

	ws, ts := randomInstance(33, 40, 600, 3)
	o := opts
	o.MaxSeqLen = 2
	o.MaxReachable = 70
	at70 := Separate(ws, ts, 0, o)
	o.MaxReachable = 64
	at64 := Separate(ws, ts, 0, o)
	if !reflect.DeepEqual(at70, at64) {
		t.Fatal("Separate at MaxReachable 70 differs from Separate at 64")
	}
	if !slices.ContainsFunc(at64.Sets, func(set WorkerSets) bool { return len(set.Index) == 64 }) {
		t.Fatal("no worker reaches 64 tasks")
	}

	r := rand.New(rand.NewSource(71))
	w := worker(1, 0, 0, 2, 0, 600)
	var rs []*core.Task
	for i := 0; i < 100; i++ {
		rs = append(rs, task(i+1, r.Float64()*1.4, r.Float64()*1.4, 0, 100+r.Float64()*500))
	}
	o = opts.WithDefaults()
	o.MaxSequences = 1 << 30
	all, first := MaximalValidSequences(w, rs, 0, o), MaximalValidSequences(w, rs[:64], 0, o)
	if len(all) < 64 || !reflect.DeepEqual(all, first) {
		t.Fatalf("%d sequences over 100 tasks, %d over the first 64 of them", len(all), len(first))
	}
}

// TestSequencesOutliveTheSeparator pins the ownership of Q_w's tasks: a
// Separation holds Q_w as positions in the Separator's arenas, and a sequence
// resolved off it (AppendSeq) is the caller's, capacity-capped and unchanged
// however many instants the Separator plans next. The plans built that way are
// held to the same in internal/assign (TestPlanSequencesOutliveTheSearch).
func TestSequencesOutliveTheSeparator(t *testing.T) {
	ws, ts := randomInstance(21, 60, 300, 5)
	var sp Separator
	first := sp.Separate(ws, ts, 0, opts)
	var kept []core.Sequence
	var ids [][]int
	for i := range first.Sets {
		for _, q := range seqsOf(first, i) {
			if cap(q) != len(q) {
				t.Fatalf("worker %d: a sequence of %d tasks has capacity %d", ws[i].ID, len(q), cap(q))
			}
			kept = append(kept, q)
			ids = append(ids, q.IDs())
		}
	}
	if len(kept) == 0 {
		t.Fatal("no sequences")
	}
	ws2, ts2 := randomInstance(22, 60, 300, 5)
	for call := 0; call < 3; call++ {
		sp.Separate(ws2, ts2, float64(call), opts)
	}
	for j, q := range kept {
		if !slices.Equal(q.IDs(), ids[j]) {
			t.Fatalf("sequence %d read %v before the Separator planned other instants, %v after", j, ids[j], q.IDs())
		}
	}
}
