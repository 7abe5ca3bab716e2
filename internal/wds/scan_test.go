package wds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

// scanReach is RS_w by definition, with no disc and no grid: every task of
// the pool that scenario holds (nil: all of them), in pool order, that worker
// w reaches at now — within its reach, (iii), and, where no comparison rules it
// out, with validity left and the travel fitting both the validity, (i), and
// the window, (ii) — nearest first, ties by id and then pool position, cut at
// o.MaxReachable. A worker off shift reaches nothing.
func scanReach(w *core.Worker, tasks []*core.Task, holds func(p int) bool, now float64, o Options) []int32 {
	if !w.Available(now) {
		return nil
	}
	var in []spatial.Candidate
	for p, s := range tasks {
		if holds != nil && !holds(p) {
			continue
		}
		d := geo.Dist(w.Loc, s.Loc)
		travel := o.Travel.TimeForDist(d)
		if d <= w.Reach && !(s.Exp <= now || travel > s.Exp-now || travel > w.Off-now) {
			in = append(in, spatial.Candidate{Dist: d, Pos: int32(p)})
		}
	}
	slices.SortFunc(in, func(a, b spatial.Candidate) int {
		if nearer(tasks, a, b) {
			return -1
		}
		return 1
	})
	return positions(in[:min(len(in), o.MaxReachable)])
}

// scanPool draws a random instant at now = 100 over a 4 km square: reaches of
// 0.1–1.5 km, windows that leave 0–3 km of travel at the default speed and
// validities that leave up to 1 km — so each of the three bounds of a worker's
// disc is the narrowest for some workers — and every seventh task id
// repeated. Each pool holds a task expiring exactly at now, one expired before
// it, a worker not yet on shift, one whose shift ended before now and one
// ending exactly at now, and the expiries given in odd on every tenth task.
// At a speed, two workers stand on the boundary of a time bound of their
// discs: the first reaches a task in exactly the time left before the pool's
// latest expiry, which is that task's, the second one in exactly the time left
// in its shift. Last, for every fourth
// worker on shift, a task lies east of it exactly at the radius of its disc
// (workerRadius).
func scanPool(seed int64, nWorkers, nTasks int, odd []float64, o Options) (ws []*core.Worker, ts []*core.Task, now float64) {
	r := rand.New(rand.NewSource(seed))
	now = 100
	for i := 0; i < nTasks; i++ {
		id := i + 1
		if i%7 == 6 {
			id = ts[i-1].ID
		}
		ts = append(ts, &core.Task{ID: id, Loc: geo.Point{X: 4 * r.Float64(), Y: 4 * r.Float64()}, Exp: now + 100*r.Float64(), Cell: -1})
	}
	ts[0].Exp, ts[1].Exp = now, now-1
	for p := 2; len(odd) > 0 && p < nTasks; p += 10 {
		ts[p].Exp = odd[p/10%len(odd)]
	}
	for i := 0; i < nWorkers; i++ {
		on, off := 0.0, now+1+300*r.Float64()
		switch i % 11 {
		case 3:
			on = now + 1 // not yet on shift
		case 5:
			off = now - 1 // shift over
		case 7:
			off = now // ends exactly now
		}
		ws = append(ws, &core.Worker{ID: i + 1, Loc: geo.Point{X: 4 * r.Float64(), Y: 4 * r.Float64()}, Reach: 0.1 + 1.4*r.Float64(), On: on, Off: off})
	}
	if o.Travel.Speed > 0 {
		w0, w1 := ws[0], ws[1]
		w0.Reach, w0.Off, w1.Reach = 1.5, now+1000, 1.5
		loc, exp := onBoundary(w0.Loc, 1+0.3*r.Float64(), now, o)
		ts = append(ts, &core.Task{ID: nTasks + 1, Loc: loc, Exp: exp, Cell: -1})
		loc, w1.Off = onBoundary(w1.Loc, 0.5+0.3*r.Float64(), now, o)
		ts = append(ts, &core.Task{ID: nTasks + 2, Loc: loc, Exp: exp, Cell: -1})
	}
	latest := spatial.LatestExpiry(ts)
	exp := now + 100
	if !math.IsNaN(latest) && !math.IsInf(latest, 0) {
		exp = latest
	}
	for i, w := range ws {
		if i%4 != 0 || !w.Available(now) {
			continue
		}
		rad := workerRadius(w, now, latest, o)
		ts = append(ts, &core.Task{ID: nTasks + 3 + i, Loc: geo.Point{X: w.Loc.X + rad, Y: w.Loc.Y}, Exp: exp, Cell: -1})
	}
	return ws, ts, now
}

// onBoundary returns a point east of p, about d from it, and the time at
// which the travel there ends when it starts at now, exactly: the time less
// now is the travel time.
func onBoundary(p geo.Point, d, now float64, o Options) (geo.Point, float64) {
	for q := (geo.Point{X: p.X + d, Y: p.Y}); ; q.X = math.Nextafter(q.X, math.Inf(1)) {
		travel := o.Travel.TimeForDist(geo.Dist(p, q))
		if at := now + travel; at-now == travel {
			return q, at
		}
	}
}

// reachMatchesScan holds every way of gathering RS_w to scanReach on one
// pool: Scratch.Reachable on a grid index at IndexCell, at the widest reach and
// on one without a cell size (which scans), with no avail and with a random
// half of the flags clear; ReachableTasksIndexed and ReachableTasks; and
// both sides of Separator's reach stage, for the whole pool and for k = 3
// scenarios of it. With raw set, o goes to Scratch.Reachable and IndexCell as
// it is, not with its defaults: a zero speed reaches them unreplaced.
func reachMatchesScan(t *testing.T, name string, ws []*core.Worker, ts []*core.Task, now float64, o Options, raw bool) {
	t.Helper()
	od := o.WithDefaults()
	direct := od
	if raw {
		direct.Travel = o.Travel
	}
	r := rand.New(rand.NewSource(int64(len(ws)*1000 + len(ts))))
	avail := make([]bool, len(ts))
	for p := range avail {
		avail[p] = r.Intn(2) == 0
	}
	free := func(p int) bool { return avail[p] }
	indexes := map[string]*spatial.Index{
		"IndexCell":        spatial.NewIndex(ts, IndexCell(ws, ts, now, direct)),
		"CellSizeForReach": spatial.NewIndex(ts, spatial.CellSizeForReach(ws)),
		"scan":             spatial.NewIndex(ts, 0),
	}
	var sc Scratch
	reaching := 0
	for _, w := range ws {
		want := scanReach(w, ts, nil, now, direct)
		if len(want) > 0 {
			reaching++
		}
		wantFree := scanReach(w, ts, free, now, direct)
		for ix, index := range indexes {
			if got := positions(sc.Reachable(w, index, nil, now, direct)); !slices.Equal(got, want) {
				t.Fatalf("%s: worker %d, %s index: Reachable %v, scan %v", name, w.ID, ix, got, want)
			}
			if got := positions(sc.Reachable(w, index, avail, now, direct)); !slices.Equal(got, wantFree) {
				t.Fatalf("%s: worker %d, %s index, half available: Reachable %v, scan %v", name, w.ID, ix, got, wantFree)
			}
		}
		// The public functions apply the defaults themselves.
		var tasks []*core.Task
		for _, p := range scanReach(w, ts, nil, now, od) {
			tasks = append(tasks, ts[p])
		}
		if got := ReachableTasksIndexed(w, indexes["IndexCell"], now, o); !slices.Equal(got, tasks) {
			t.Fatalf("%s: worker %d: ReachableTasksIndexed %v, scan %v", name, w.ID, got, tasks)
		}
		if got := ReachableTasks(w, ts, now, o); !slices.Equal(got, tasks) {
			t.Fatalf("%s: worker %d: ReachableTasks %v, scan %v", name, w.ID, got, tasks)
		}
	}
	if reaching == 0 {
		t.Fatalf("%s: no worker reaches a task: the comparison is vacuous", name)
	}

	// The Separator's sides, on a copy of the pool tagging every third task
	// for some of k = 3 scenarios.
	const k = 3
	tagged := make([]*core.Task, len(ts))
	for p, s := range ts {
		c := *s
		if p%3 == 1 {
			c.Virtual, c.SampleBits = true, uint64(1+r.Intn(1<<k-1))
		}
		tagged[p] = &c
	}
	for _, c := range []struct {
		pool []*core.Task
		k    int
	}{{ts, 1}, {tagged, k}} {
		for _, from := range []side{workerSide, taskSide} {
			var sp Separator
			seps := sp.scenarios(ws, c.pool, now, o, c.k, from)
			for s := range seps {
				holds := func(p int) bool { b := c.pool[p].SampleBits; return c.k == 1 || b == 0 || b>>uint(s)&1 != 0 }
				for i, w := range ws {
					if got, want := seps[s].Sets[i].Index, scanReach(w, c.pool, holds, now, od); !slices.Equal(got, want) {
						t.Fatalf("%s: k=%d, side %d, scenario %d, worker %d: RS_w %v, scan %v", name, c.k, from, s, w.ID, got, want)
					}
				}
			}
		}
	}
}

// TestReachMatchesScan is the reach stage's oracle test: on random pools,
// every way the package gathers RS_w — Scratch.Reachable with and without a
// partial avail, ReachableTasksIndexed, ReachableTasks and both sides of the
// Separator — equals a scan of every task that applies the three conditions
// as Section IV-A.1 states them, and no disc. The pools hold NaN and ±Inf
// expiries, a task expiring exactly at now, workers off shift at now, tasks
// exactly at a worker's disc radius, and lattices where distances, reaches,
// windows and validities coincide. The options include a zero speed (given as
// it is to Scratch.Reachable, replaced by the default elsewhere) and caps from
// 3 to 64. One pool has workers enough on shift for the reach loop to fan out
// (reachGrain).
func TestReachMatchesScan(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := Options{Travel: geo.NewTravelModel(0)}
	wide := base
	wide.MaxReachable = 64
	zero := Options{MaxReachable: 5} // Travel: the zero model
	for _, c := range []struct {
		name string
		odd  []float64
	}{
		{"finite", nil},
		{"NaN", []float64{nan}},
		{"+Inf", []float64{inf}},
		{"-Inf", []float64{math.Inf(-1)}},
		{"all odd", []float64{nan, inf, math.Inf(-1)}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, o := range []Options{base, wide} {
				name := fmt.Sprintf("%s/seed %d/cap %d", c.name, seed, o.WithDefaults().MaxReachable)
				ws, ts, now := scanPool(seed, 60, 90, c.odd, o.WithDefaults())
				reachMatchesScan(t, name, ws, ts, now, o, false)
			}
			raw := zero.WithDefaults()
			raw.Travel = zero.Travel
			ws, ts, now := scanPool(seed, 60, 90, c.odd, raw)
			reachMatchesScan(t, fmt.Sprintf("%s/seed %d/zero speed", c.name, seed), ws, ts, now, zero, true)
		}
	}
	// Lattices at unit speed, where travel times are the distances themselves:
	// many tasks lie exactly at a worker's reach, exactly its window away or
	// exactly their validity away, and distances tie.
	unit := Options{Travel: geo.NewTravelModel(1), MaxReachable: 3}
	for seed := int64(1); seed <= 4; seed++ {
		ws, ts := latticeInstance(seed, 40, 60)
		reachMatchesScan(t, fmt.Sprintf("lattice/%d", seed), ws, ts, 0, unit, false)
	}
	ws, ts, now := scanPool(9, 800, 900, []float64{inf}, base.WithDefaults())
	reachMatchesScan(t, "past the reach grain", ws, ts, now, base, false)
}
