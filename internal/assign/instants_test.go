package assign

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// instant is the planning pool of a trace at one time, built the way
// Framework.TrainValue builds its sample instants: every worker available at
// t, every task published and unexpired at t.
type instant struct {
	name    string
	now     float64
	grid    geo.Grid
	workers []*core.Worker
	tasks   []*core.Task
}

func poolAt(sc *workload.Scenario, name string, t float64) instant {
	in := instant{name: name, now: t, grid: sc.Grid}
	for _, w := range sc.Workers {
		if w.Available(t) {
			in.workers = append(in.workers, w)
		}
	}
	for _, s := range sc.Tasks {
		if s.Pub <= t && s.Exp > t {
			in.tasks = append(in.tasks, s)
		}
	}
	return in
}

// atlasInstants returns the crowd and median instants of every atlas
// archetype.
func atlasInstants() []instant {
	var out []instant
	for _, a := range scenario.Registry() {
		out = append(out, atlasInstantsOf(a, 1)...)
	}
	return out
}

// atlasInstantsOf returns the archetype's crowd instant at the given density
// (most open tasks on a 2 s grid) and its median one, in that order.
func atlasInstantsOf(a scenario.Archetype, scale float64) []instant {
	sc := a.Generate(scale)
	type load struct {
		t    float64
		open int
	}
	var grid []load
	for t := sc.T0; t < sc.T1; t += 2 {
		open := 0
		for _, s := range sc.Tasks {
			if s.Pub <= t && s.Exp > t {
				open++
			}
		}
		grid = append(grid, load{t, open})
	}
	// Busiest first; the stable sort keeps ties in time order.
	sort.SliceStable(grid, func(i, j int) bool { return grid[i].open > grid[j].open })
	crowd, median := grid[0], grid[len(grid)/2]
	return []instant{poolAt(sc, a.Name+"/crowd", crowd.t), poolAt(sc, a.Name+"/median", median.t)}
}

// chainInstant is a one-row lattice: n tasks a step apart on a line, and every
// stride steps a stack of workers, a hair apart, that each reach exactly span
// of them — neighbouring stacks share span−stride tasks, so the whole row is
// one dependency component and its universe is exactly the n tasks.
func chainInstant(n, span, stride, stack int) instant {
	const step = 0.1
	in := instant{name: fmt.Sprintf("chain-%d", n)}
	for i := 0; i < n; i++ {
		in.tasks = append(in.tasks, task(i+1, step*float64(i), 0, 0, 1e5))
	}
	for i := 0; ; i++ {
		first := min(stride*i, n-span)
		for s := 0; s < stack; s++ {
			in.workers = append(in.workers, worker(len(in.workers)+1,
				step*(float64(first)+float64(span-1)/2), 0.001*float64(s), step*float64(span)/2, 0, 1e5))
		}
		if first == n-span {
			return in
		}
	}
}

// valueTieInstant is a plan decided by the last bit of a sequence value. Worker
// 1 can sweep west over tasks 1–3 (virtual, virtual, real) or east over 4–6
// (real, virtual, virtual), nothing in between — deadlines forbid turning back —
// and at a virtual weight of 0.1 seqValue sums the first to 1.2 and the second,
// met second, to the double above it: east wins, but only if the values
// compared are seqValue's running sums and not, say, 1 + 2·0.1. Workers 2 and 3
// contend for task 7, virtual too, and make it a tree the table is on for.
func valueTieInstant() instant {
	in := instant{name: "value-tie"}
	for i, x := range []float64{-0.1, -0.2, -0.3, 0.1, 0.2, 0.3} {
		s := task(i+1, x, 0, 0, float64(10*(i%3+1)+1))
		s.Virtual = i != 2 && i != 3
		in.tasks = append(in.tasks, s)
	}
	in.tasks = append(in.tasks, vtask(7, 0, 0.3, 0, 31))
	in.workers = []*core.Worker{worker(1, 0, 0, 0.35, 0, 1e5), worker(2, 0, 0.5, 0.25, 0, 1e5), worker(3, 0, 0.55, 0.3, 0, 1e5)}
	return in
}

// scanInstants returns the pools the sequential planners are pinned on: the
// atlas instants with a virtual task published half a minute out beside every
// fourth real one, then the shapes the availability flags and the per-instant
// index have to get right.
func scanInstants() []instant {
	var out []instant
	for _, in := range atlasInstants() {
		n := len(in.tasks)
		for i := 0; i < n; i += 4 {
			s := in.tasks[i]
			in.tasks = append(in.tasks, &core.Task{ID: -1 - i, Loc: geo.Point{X: s.Loc.X + 0.05, Y: s.Loc.Y},
				Pub: in.now + 30, Exp: in.now + 150, Cell: -1, Virtual: true})
		}
		out = append(out, in)
	}
	crowd := out[2] // courier-grid/crowd
	if crowd.name != "courier-grid/crowd" {
		panic("atlas order changed: " + crowd.name)
	}

	unsorted := crowd
	unsorted.name = "unsorted-workers"
	unsorted.workers = slices.Clone(crowd.workers)
	slices.Reverse(unsorted.workers)
	out = append(out, unsorted)

	// A repeated id plans once, at its first position: the same task again,
	// and another task under a used id next to a worker that would want it.
	repeated := crowd
	repeated.name = "repeated-id"
	first, w := crowd.tasks[0], crowd.workers[0]
	repeated.tasks = append(slices.Clone(crowd.tasks), first, crowd.tasks[len(crowd.tasks)/2],
		&core.Task{ID: first.ID, Loc: w.Loc, Pub: first.Pub, Exp: first.Exp, Cell: -1})
	out = append(out, repeated)

	empty := crowd
	empty.name, empty.tasks = "empty-pool", nil
	out = append(out, empty)

	// No worker has any reach: the index has no cell size to work with and
	// answers by scanning; only a task under a worker's feet is reachable.
	flat := instant{name: "zero-reach", now: crowd.now, tasks: crowd.tasks}
	for i, w := range crowd.workers {
		c := *w
		c.Reach = 0
		if i%2 == 0 {
			c.Loc = crowd.tasks[i%len(crowd.tasks)].Loc
		}
		flat.workers = append(flat.workers, &c)
	}
	return append(out, flat)
}
