package assign

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

// The cell lists, cell union-find and map-and-sort partition that
// Incremental ran on before its cell sets became bitsets, kept as the oracle
// the bitset code is compared against.

// refWorkerCells is the old AppendWorkerCells: the clamped disk (whose cell
// list internal/spatial pins to the old rasteriser), or the worker's own cell
// when the disk is empty.
func refWorkerCells(dst []int, g geo.Grid, p geo.Point, reach float64) []int {
	n := len(dst)
	dst = spatial.AppendCellsInDisk(dst, g, g.Region.Clamp(p), reach)
	if len(dst) == n {
		dst = append(dst, g.CellOf(p))
	}
	return dst
}

type refComponent struct {
	cells   []int // sorted, deduped
	workers []int
	tasks   []int
	empty   bool
}

// refPartition is the old Incremental.partition without its scratch reuse.
func refPartition(g geo.Grid, workers []*core.Worker, tasks []*core.Task, plan core.Plan) []*refComponent {
	parent := make([]int, g.Cells())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(c int) int {
		if parent[c] != c {
			parent[c] = find(parent[c])
		}
		return parent[c]
	}
	wcells := make([][]int, len(workers))
	for i, w := range workers {
		wcells[i] = refWorkerCells(nil, g, w.Loc, w.Reach)
		for _, c := range wcells[i][1:] {
			if ra, rb := find(wcells[i][0]), find(c); ra != rb {
				parent[rb] = ra
			}
		}
	}
	assigned := make(map[int]bool)
	for _, a := range plan {
		assigned[a.Worker.ID] = true
	}
	byRoot := make(map[int]*refComponent)
	var comps []*refComponent
	compOf := func(root int) *refComponent {
		c, ok := byRoot[root]
		if !ok {
			c = &refComponent{empty: true}
			byRoot[root] = c
			comps = append(comps, c)
		}
		return c
	}
	for i, w := range workers {
		c := compOf(find(wcells[i][0]))
		c.workers = append(c.workers, w.ID)
		c.cells = append(c.cells, wcells[i]...)
		if assigned[w.ID] {
			c.empty = false
		}
	}
	for _, s := range tasks {
		cell := g.CellOf(s.Loc)
		c := compOf(find(cell))
		c.tasks = append(c.tasks, s.ID)
		c.cells = append(c.cells, cell)
	}
	for _, c := range comps {
		slices.Sort(c.cells)
		c.cells = slices.Compact(c.cells)
	}
	return comps
}

func sameComponents(t *testing.T, want []*refComponent, got []*planComponent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d components, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !slices.Equal(g.workers, w.workers) || !slices.Equal(g.tasks, w.tasks) ||
			!slices.Equal(g.cells.AppendCells(nil), w.cells) || g.empty != w.empty {
			t.Fatalf("component %d:\n got workers %v tasks %v cells %v empty %v\nwant workers %v tasks %v cells %v empty %v",
				i, g.workers, g.tasks, g.cells.AppendCells(nil), g.empty, w.workers, w.tasks, w.cells, w.empty)
		}
	}
}

// TestPartitionMatchesReference: on the crowd and median instants of every
// atlas archetype, under Greedy's and DTA's plans, the bitset partition is
// the map-and-sort one — same components in the same order, same members in
// the same order, same cells, same empty flags. The second pass runs on the
// disks the first one left behind, the third after some workers moved.
func TestPartitionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, in := range atlasInstants() {
		o := opts()
		o.MaxNodes = 4000
		for _, full := range []Planner{&Greedy{Opts: o}, &Search{Opts: o}} {
			t.Run(fmt.Sprintf("%s/%s", in.name, full.Name()), func(t *testing.T) {
				inc := NewIncremental(full, in.grid)
				workers := make([]*core.Worker, len(in.workers))
				for i, w := range in.workers {
					cp := *w
					workers[i] = &cp
				}
				for pass := 0; pass < 3; pass++ {
					if pass == 2 {
						for _, w := range workers {
							if r.Intn(3) == 0 {
								w.Loc.X += r.Float64() - 0.5
								w.Loc.Y += r.Float64() - 0.5
							}
						}
					}
					plan := full.Plan(workers, in.tasks, in.now)
					sameComponents(t, refPartition(in.grid, workers, in.tasks, plan), inc.partition(workers, in.tasks, plan))
				}
			})
		}
	}
}

// TestWorkerCellsMatchReference: AddWorkerCells marks the cells the old
// list-building AppendWorkerCells returned — clamped off-region centres, the
// own-cell fallback for a negative or NaN reach, zero and infinite reach,
// non-finite centres, and disks tangent to cell boundaries included.
func TestWorkerCellsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	inf, nan := math.Inf(1), math.NaN()
	check := func(g geo.Grid, p geo.Point, reach float64) {
		t.Helper()
		set := spatial.NewCellSet(g.Cells())
		own := AddWorkerCells(set, g, p, reach)
		want := refWorkerCells(nil, g, p, reach)
		if got := set.AppendCells(nil); !slices.Equal(got, want) || own != g.CellOf(p) {
			t.Fatalf("grid %+v p=%+v reach=%v: cells %v own %d, reference %v own %d", g, p, reach, got, own, want, g.CellOf(p))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		g := geo.NewGrid(geo.Rect{MinX: -3 + r.Float64(), MinY: r.Float64(), MaxX: 2 + 8*r.Float64(), MaxY: 3 + 5*r.Float64()}, 1+r.Intn(12), 1+r.Intn(12))
		p := geo.Point{X: -6 + 20*r.Float64(), Y: -4 + 16*r.Float64()}
		check(g, p, 3*r.Float64())
	}
	for _, p := range []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1.5}, {X: 0, Y: 0}, {X: 4, Y: 4}, {X: -99, Y: 99}, {X: 2.5, Y: -1},
		{X: nan, Y: 1}, {X: 1, Y: nan}, {X: inf, Y: 1}, {X: -inf, Y: -inf}, {X: 3.999999, Y: 2}} {
		for _, reach := range []float64{0, 0.5, 1, 1.5, 7, -1, nan, inf, -inf} {
			check(incGrid, p, reach)
			check(geo.NewGrid(incGrid.Region, 9, 9), p, reach) // 81 cells: two words
		}
	}
}
