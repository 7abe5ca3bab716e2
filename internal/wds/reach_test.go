package wds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
)

// sidesAgree gathers the k scenarios of one pool from the worker side and
// from the task side, on two Separators, and requires the same Sets — every
// RS_w's Index, Q_w's masks and orders, and which sibling first holds each —
// returning how many workers reach a task in some scenario.
func sidesAgree(t *testing.T, name string, workers []*core.Worker, tasks []*core.Task, now float64, o Options, k int) int {
	t.Helper()
	var bw, bt Separator
	byWorker := bw.scenarios(workers, tasks, now, o, k, workerSide)
	byTask := bt.scenarios(workers, tasks, now, o, k, taskSide)
	reaching := 0
	for i, w := range workers {
		some := false
		for s := range byWorker {
			a, b := &byWorker[s], &byTask[s]
			wa, wb := &a.Sets[i], &b.Sets[i]
			if !slices.Equal(wa.Index, wb.Index) || a.first[i] != b.first[i] {
				t.Fatalf("%s: scenario %d worker %d: worker side RS_w %v (first %d), task side %v (first %d)",
					name, s, w.ID, wa.Index, a.first[i], wb.Index, b.first[i])
			}
			if !slices.Equal(wa.Masks, wb.Masks) || !slices.Equal(wa.Orders, wb.Orders) {
				t.Fatalf("%s: scenario %d worker %d: Q_w differs between the sides", name, s, w.ID)
			}
			some = some || len(wa.Index) > 0
		}
		if some {
			reaching++
		}
	}
	return reaching
}

// latticeInstance puts workers and tasks on integer points, so that many
// distances tie exactly, with task ids shuffled against pool order and every
// fifth id repeated: the order of RS_w is then decided by the id, and for a
// repeated id by the pool position.
func latticeInstance(seed int64, nWorkers, nTasks int) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(seed))
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		on, off := 0.0, 100+float64(r.Intn(900))
		if i%7 == 3 {
			on = 50 // not yet on shift at now = 0
		}
		ws = append(ws, &core.Worker{ID: i + 1, Loc: geo.Point{X: float64(r.Intn(12)), Y: float64(r.Intn(12))}, Reach: float64(1 + r.Intn(4)), On: on, Off: off})
	}
	ids := r.Perm(nTasks)
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		id := ids[i] + 1
		if i%5 == 4 {
			id = ts[i-1].ID
		}
		ts = append(ts, &core.Task{ID: id, Loc: geo.Point{X: float64(r.Intn(12)), Y: float64(r.Intn(12))}, Exp: float64(1 + r.Intn(6)), Cell: -1})
	}
	return ws, ts
}

// TestReachSidesAgree holds the two sides of the reach stage to one answer: a
// worker's reachable sets gathered by its own disc query on the task grid are
// the ones the tasks find by querying the worker grid, and so are its
// sequences. The inputs are lattice pools full of exact distance ties, the
// boundaries of the three conditions — a task exactly at Reach, travel exactly
// Exp − now and exactly Off − now, and a hair past each — off-shift workers
// and an empty pool, K = 5 pools of scenario-tagged tasks, and the crowd and
// median instants of every atlas archetype.
func TestReachSidesAgree(t *testing.T) {
	unit := Options{Travel: geo.NewTravelModel(1), MaxReachable: 3}
	for _, seed := range []int64{1, 2, 3, 4} {
		ws, ts := latticeInstance(seed, 40, 60)
		if sidesAgree(t, fmt.Sprintf("lattice/%d", seed), ws, ts, 0, unit, 1) == 0 {
			t.Fatalf("lattice/%d: no worker reaches a task", seed)
		}
		wide := unit
		wide.MaxReachable = 64
		sidesAgree(t, fmt.Sprintf("lattice/%d/reach64", seed), ws, ts, 0, wide, 1)
	}

	// The boundaries, at the default speed from now = 0: a worker exactly
	// Reach from a task, one whose travel to it takes exactly the task's
	// validity, one whose travel takes exactly its window — each reaching it —
	// and each again a hair past, reaching nothing.
	tm := geo.NewTravelModel(0)
	travel := tm.TimeForDist(0.3)
	onEdge := []*core.Worker{
		{ID: 1, Loc: geo.Point{X: 1}, Reach: 1, Off: 1e4},
		{ID: 2, Loc: geo.Point{X: 2, Y: 0.3}, Reach: 1, Off: 1e4},
		{ID: 3, Loc: geo.Point{X: 3, Y: 0.3}, Reach: 1, Off: travel},
	}
	pastEdge := []*core.Worker{
		{ID: 1, Loc: geo.Point{X: 1}, Reach: math.Nextafter(1, 0), Off: 1e4},
		{ID: 2, Loc: geo.Point{X: 2, Y: 0.3}, Reach: 1, Off: 1e4},
		{ID: 3, Loc: geo.Point{X: 3, Y: 0.3}, Reach: 1, Off: math.Nextafter(travel, 0)},
	}
	edgeTasks := func(exp float64) []*core.Task {
		return []*core.Task{
			{ID: 1, Loc: geo.Point{}, Exp: 1e4, Cell: -1},
			{ID: 2, Loc: geo.Point{X: 2}, Exp: exp, Cell: -1},
			{ID: 3, Loc: geo.Point{X: 3}, Exp: 1e4, Cell: -1},
		}
	}
	o := Options{Travel: tm}
	if got := sidesAgree(t, "boundary", onEdge, edgeTasks(travel), 0, o, 1); got != 3 {
		t.Fatalf("boundary: %d of 3 workers reach their task", got)
	}
	if got := sidesAgree(t, "past the boundary", pastEdge, edgeTasks(math.Nextafter(travel, 0)), 0, o, 1); got != 0 {
		t.Fatalf("past the boundary: %d workers reach a task", got)
	}

	// Workers exactly Reach from a lone task on every side: on the edges of
	// the box the task side lays its grid over, among enough workers outside
	// it that the grid does not fall back to a scan.
	lone := []*core.Task{{ID: 1, Loc: geo.Point{X: 2, Y: 2}, Exp: 1e4, Cell: -1}}
	var around []*core.Worker
	for i, d := range []geo.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		around = append(around, &core.Worker{ID: i + 1, Loc: geo.Point{X: 2 + d.X, Y: 2 + d.Y}, Reach: 1, Off: 1e4})
	}
	for i := 0; i < 12; i++ {
		around = append(around, &core.Worker{ID: 5 + i, Loc: geo.Point{X: 20 + float64(i), Y: 20}, Reach: 1, Off: 1e4})
	}
	if got := sidesAgree(t, "on the box's edges", around, lone, 0, o, 1); got != 4 {
		t.Fatalf("on the box's edges: %d of 4 workers reach the task", got)
	}

	// Coordinates, reaches and expiries that are not finite: a task that never
	// expires, or whose expiry is NaN, which no comparison rules out.
	nan, inf := math.NaN(), math.Inf(1)
	odd := []*core.Worker{
		{ID: 1, Loc: geo.Point{X: nan, Y: 1}, Reach: 1, Off: 1e4},
		{ID: 2, Loc: geo.Point{X: inf, Y: 1}, Reach: 1, Off: 1e4},
		{ID: 3, Loc: geo.Point{X: 1, Y: 1}, Reach: nan, Off: 1e4},
		{ID: 4, Loc: geo.Point{X: 1.5, Y: 1}, Reach: inf, Off: 1e4},
		{ID: 5, Loc: geo.Point{X: 0.8, Y: 1}, Reach: 1, Off: 1e4},
		{ID: 6, Loc: geo.Point{X: 1.2, Y: 1.1}, Reach: 0.5, Off: 1e4},
		{ID: 7, Loc: geo.Point{X: 40, Y: 40}, Reach: 1, Off: 1e4},
	}
	for _, exp := range []float64{inf, nan, 30} {
		oddTasks := []*core.Task{
			{ID: 1, Loc: geo.Point{X: 1, Y: 1}, Exp: exp, Cell: -1},
			{ID: 2, Loc: geo.Point{X: nan, Y: 1}, Exp: 1e4, Cell: -1},
			{ID: 3, Loc: geo.Point{X: 1.1, Y: 1}, Exp: 1e4, Cell: -1},
		}
		if sidesAgree(t, fmt.Sprintf("not finite/exp=%v", exp), odd, oddTasks, 0, o, 1) == 0 {
			t.Fatalf("not finite/exp=%v: no worker reaches a task", exp)
		}
	}

	// Off shift, and nothing to reach.
	ws, ts := randomInstance(5, 30, 20, 2)
	sidesAgree(t, "after every shift", ws, ts, 1e4, opts, 1)
	sidesAgree(t, "empty pool", ws, nil, 0, opts, 1)
	sidesAgree(t, "no workers", nil, ts, 0, opts, 1)

	const k = 5
	for _, seed := range []int64{7, 19, 51} {
		ws, ts := randomInstance(seed, 120, 40, 3)
		r := rand.New(rand.NewSource(seed))
		for i, s := range ts {
			if i%3 != 0 {
				s.Virtual, s.SampleBits = true, uint64(r.Intn(1<<k))
			}
		}
		narrow := opts
		narrow.MaxReachable = 2
		for _, o := range []Options{opts, narrow} {
			sidesAgree(t, fmt.Sprintf("scenarios/%d/cap%d", seed, o.MaxReachable), ws, ts, 0, o, k)
		}
	}

	for _, in := range atlasInstants() {
		sidesAgree(t, in.name, in.workers, in.tasks, in.now, crowdOpts, 1)
	}
}

// TestScenariosTakeTheSmallerSide: Scenarios gathers from the task side when
// the pool holds fewer tasks than there are workers on shift, and from the
// worker side otherwise; on the idle instant the task side computes a
// fraction of the distances.
func TestScenariosTakeTheSmallerSide(t *testing.T) {
	var sp Separator
	idle := idleOf()
	sp.Scenarios(idle.workers, idle.tasks, idle.now, crowdOpts, 1)
	if !sp.fromTasks {
		t.Fatalf("%d tasks, %d workers on shift: gathered from the worker side", len(idle.tasks), len(idle.workers))
	}
	fromTasks := sp.ReachChecks()
	sp.scenarios(idle.workers, idle.tasks, idle.now, crowdOpts, 1, workerSide)
	if fromWorkers := sp.ReachChecks(); 3*fromTasks > fromWorkers {
		t.Fatalf("idle instant: %d distance checks from the task side, %d from the worker side", fromTasks, fromWorkers)
	}
	crowd := crowdOf("event-spike", 5)
	sp.Scenarios(crowd.workers, crowd.tasks, crowd.now, crowdOpts, 1)
	if sp.fromTasks != (len(crowd.tasks) < len(crowd.workers)) {
		t.Fatalf("%s: %d tasks, %d workers: from the task side = %v", crowd.name, len(crowd.tasks), len(crowd.workers), sp.fromTasks)
	}
}

// TestReachChecksPinned is the reach stage's work gate: the distances
// Separator.ReachChecks counts on three worker-side crowds, exactly. Before a
// worker's disc was bounded by the time its shift and the pool leave it
// (workerRadius), the stage computed 187,397, 91,909 and 25,784 of them.
func TestReachChecksPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		at    int // instantsOf's: 0 the crowd, 1 the median
		want  int
	}{
		{"courier-grid", 20, 0, 68074},
		{"courier-grid", 20, 1, 28015},
		{"event-spike", 1.5, 0, 4608},
	} {
		a, _ := scenario.Get(c.name)
		in := instantsOf(a, c.scale)[c.at]
		var sp Separator
		sp.Scenarios(in.workers, in.tasks, in.now, crowdOpts, 1)
		if sp.fromTasks {
			t.Fatalf("%s at %gx: gathered from the task side", in.name, c.scale)
		}
		if got := sp.ReachChecks(); got != c.want {
			t.Errorf("%s at %gx: %d distance checks, want %d", in.name, c.scale, got, c.want)
		}
	}
}

// idleOf has the shape of paper-yueche's median instant (ROADMAP item 5's
// table), drawn as internal/assign's idleInstant draws it: 276 workers on
// shift over the Yueche trace's 4 km square with its 1 km reach, and 3 open
// tasks with its 40 s of validity. At the default 10 m/s a worker must stand
// within 0.4 km of a task to reach it before it expires; one worker stands
// 0.2 km from each task, and the other 273 — about 50 of them within 1 km of
// a task — stand farther than 0.4 km from all three.
func idleOf() instant {
	r := rand.New(rand.NewSource(31))
	in := instant{name: "idle"}
	for i := 0; i < 3; i++ {
		loc := geo.Point{X: 0.5 + 3*r.Float64(), Y: 0.5 + 3*r.Float64()}
		in.tasks = append(in.tasks, &core.Task{ID: i + 1, Loc: loc, Exp: 40, Cell: -1})
	}
	for i := 0; i < 276; i++ {
		loc := in.tasks[i/92].Loc
		loc.X += 0.2
		for i%92 != 0 && slices.ContainsFunc(in.tasks, func(s *core.Task) bool { return geo.Dist(loc, s.Loc) <= 0.4 }) {
			loc = geo.Point{X: 4 * r.Float64(), Y: 4 * r.Float64()}
		}
		in.workers = append(in.workers, &core.Worker{ID: i + 1, Loc: loc, Reach: 1, Off: 3600})
	}
	return in
}
