package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func randomTasks(r *rand.Rand, n int, span float64) []*core.Task {
	out := make([]*core.Task, n)
	for i := range out {
		out[i] = &core.Task{
			ID:  i + 1,
			Loc: geo.Point{X: r.Float64() * span, Y: r.Float64() * span},
			Pub: 0, Exp: 1e5, Cell: -1,
		}
	}
	return out
}

// bruteWithin is the linear-scan oracle the index must agree with exactly.
func bruteWithin(tasks []*core.Task, p geo.Point, r float64) []*core.Task {
	if r < 0 || math.IsNaN(r) {
		return nil
	}
	var out []*core.Task
	for _, t := range tasks {
		if geo.Dist(p, t.Loc) <= r {
			out = append(out, t)
		}
	}
	return out
}

func sameTasks(t *testing.T, got, want []*core.Task) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tasks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got task %d, want task %d", i, got[i].ID, want[i].ID)
		}
	}
}

func TestWithinMatchesBruteForceOracle(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(200)
		span := 0.5 + r.Float64()*8
		tasks := randomTasks(r, n, span)
		// Cell sizes from much smaller than the radius to much larger.
		cell := math.Pow(10, -1+2*r.Float64()) * span / 10
		ix := NewIndex(tasks, cell)
		for q := 0; q < 20; q++ {
			p := geo.Point{X: r.Float64()*span*1.4 - span*0.2, Y: r.Float64()*span*1.4 - span*0.2}
			radius := r.Float64() * span / 2
			sameTasks(t, ix.AppendWithin(nil, p, radius), bruteWithin(tasks, p, radius))
		}
	}
}

func TestWithinBoundaryCells(t *testing.T) {
	// Points sitting exactly on cell edges and corners, queried at radii
	// that put them exactly on the disc boundary: distance == r must be
	// included, just as the brute-force filter includes it.
	var tasks []*core.Task
	id := 1
	for x := 0.0; x <= 4.0; x++ {
		for y := 0.0; y <= 4.0; y++ {
			tasks = append(tasks, &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Exp: 1e5, Cell: -1})
			id++
		}
	}
	ix := NewIndex(tasks, 1.0) // cells exactly aligned with the lattice
	center := geo.Point{X: 2, Y: 2}
	for _, radius := range []float64{0, 1, math.Sqrt2, 2, 2.5, 10} {
		sameTasks(t, ix.AppendWithin(nil, center, radius), bruteWithin(tasks, center, radius))
	}
	// Query point on a cell corner.
	corner := geo.Point{X: 1, Y: 1}
	for _, radius := range []float64{0, 0.999999, 1, 1.000001} {
		sameTasks(t, ix.AppendWithin(nil, corner, radius), bruteWithin(tasks, corner, radius))
	}
}

func TestWithinZeroRadius(t *testing.T) {
	tasks := []*core.Task{
		{ID: 1, Loc: geo.Point{X: 1, Y: 1}, Exp: 1e5, Cell: -1},
		{ID: 2, Loc: geo.Point{X: 1, Y: 1}, Exp: 1e5, Cell: -1},
		{ID: 3, Loc: geo.Point{X: 1.0000001, Y: 1}, Exp: 1e5, Cell: -1},
	}
	ix := NewIndex(tasks, 0.5)
	got := ix.AppendWithin(nil, geo.Point{X: 1, Y: 1}, 0)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("zero-radius query returned %d tasks, want the 2 colocated ones", len(got))
	}
	if got := ix.AppendWithin(nil, geo.Point{X: 2, Y: 2}, -1); got != nil {
		t.Fatal("negative radius must return nil")
	}
}

func TestDegenerateCellSizes(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	tasks := randomTasks(r, 50, 3)
	p := geo.Point{X: 1.5, Y: 1.5}
	for _, cell := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		ix := NewIndex(tasks, cell)
		if ix.CellSize() != 0 {
			t.Errorf("cell %v: CellSize = %v, want 0 (degenerate mode)", cell, ix.CellSize())
		}
		sameTasks(t, ix.AppendWithin(nil, p, 1), bruteWithin(tasks, p, 1))
	}
	// Empty index answers every query with nothing.
	empty := NewIndex(nil, 1)
	if got := empty.AppendWithin(nil, p, 100); len(got) != 0 {
		t.Fatalf("empty index returned %d tasks", len(got))
	}
	if empty.Len() != 0 {
		t.Fatal("empty index Len != 0")
	}
}

func TestHugeRadiusFallsBackToScan(t *testing.T) {
	// A disc spanning vastly more cells than there are tasks takes the
	// full-scan branch; the answer must not change.
	r := rand.New(rand.NewSource(107))
	tasks := randomTasks(r, 30, 100)
	ix := NewIndex(tasks, 0.01) // tiny cells, huge sparse extent
	p := geo.Point{X: 50, Y: 50}
	sameTasks(t, ix.AppendWithin(nil, p, 500), bruteWithin(tasks, p, 500))
	sameTasks(t, ix.AppendWithin(nil, p, 20), bruteWithin(tasks, p, 20))
}

func TestCellSizeForReach(t *testing.T) {
	ws := []*core.Worker{
		{ID: 1, Reach: 0.3}, {ID: 2, Reach: 1.7}, {ID: 3, Reach: 0.9},
	}
	if got := CellSizeForReach(ws); got != 1.7 {
		t.Fatalf("CellSizeForReach = %v, want 1.7", got)
	}
	if got := CellSizeForReach(nil); got != 0 {
		t.Fatalf("CellSizeForReach(nil) = %v, want 0", got)
	}
}

// TestLatestExpiry: the latest expiry of a pool is its largest, −Inf for an
// empty pool, +Inf if a task never expires and NaN if one expiry is NaN,
// wherever in the pool it stands; Reset takes it for the index.
func TestLatestExpiry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		exps []float64
		want float64
	}{
		{nil, math.Inf(-1)},
		{[]float64{3, 9, 5}, 9},
		{[]float64{math.Inf(-1), 2}, 2},
		{[]float64{3, inf, 5}, inf},
		{[]float64{nan, 9}, nan},
		{[]float64{9, nan}, nan},
		{[]float64{inf, nan}, nan},
	} {
		var tasks []*core.Task
		for i, e := range c.exps {
			tasks = append(tasks, &core.Task{ID: i + 1, Exp: e, Cell: -1})
		}
		same := func(got float64) bool { return got == c.want || math.IsNaN(got) && math.IsNaN(c.want) }
		if got := LatestExpiry(tasks); !same(got) {
			t.Errorf("LatestExpiry(%v) = %v, want %v", c.exps, got, c.want)
		}
		if got := NewIndex(tasks, 1).LatestExpiry(); !same(got) {
			t.Errorf("an index over %v: LatestExpiry = %v, want %v", c.exps, got, c.want)
		}
	}
}

func TestAppendWithinReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	tasks := randomTasks(r, 80, 2)
	ix := NewIndex(tasks, 0.5)
	buf := make([]*core.Task, 0, 80)
	a := ix.AppendWithin(buf[:0], geo.Point{X: 1, Y: 1}, 0.7)
	sameTasks(t, a, bruteWithin(tasks, geo.Point{X: 1, Y: 1}, 0.7))
	b := ix.AppendWithin(buf[:0], geo.Point{X: 0.2, Y: 0.3}, 0.4)
	sameTasks(t, b, bruteWithin(tasks, geo.Point{X: 0.2, Y: 0.3}, 0.4))
}

func TestExtremeRadiiAndFarQueries(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	tasks := randomTasks(r, 40, 2)
	ix := NewIndex(tasks, 0.001) // tiny cells: huge radii span astronomic cell counts
	p := geo.Point{X: 1, Y: 1}
	// Radii that would overflow int32 cell coordinates must fall back to the
	// scan and stay exact; +Inf returns everything.
	for _, radius := range []float64{1e7, 1e12, math.Inf(1)} {
		sameTasks(t, ix.AppendWithin(nil, p, radius), bruteWithin(tasks, p, radius))
	}
	if got := ix.AppendWithin(nil, p, math.Inf(1)); len(got) != len(tasks) {
		t.Fatalf("infinite radius returned %d of %d tasks", len(got), len(tasks))
	}
	// A query point astronomically far from the data returns nothing.
	far := geo.Point{X: 1e12, Y: -1e12}
	sameTasks(t, ix.AppendWithin(nil, far, 0.5), bruteWithin(tasks, far, 0.5))
}

// bruteCellsInDisk is the linear-scan oracle: every cell whose rectangle's
// nearest point lies within r of p.
func bruteCellsInDisk(g geo.Grid, p geo.Point, r float64) []int {
	var out []int
	for i := 0; i < g.Cells(); i++ {
		rect := g.CellRect(i)
		dx := math.Max(0, math.Max(rect.MinX-p.X, p.X-rect.MaxX))
		dy := math.Max(0, math.Max(rect.MinY-p.Y, p.Y-rect.MaxY))
		if dx*dx+dy*dy <= r*r {
			out = append(out, i)
		}
	}
	return out
}

func TestCellsInDiskMatchesOracle(t *testing.T) {
	g := geo.NewGrid(geo.Rect{MinX: -2, MinY: 1, MaxX: 10, MaxY: 7}, 4, 6)
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		p := geo.Point{X: -4 + 16*r.Float64(), Y: -1 + 10*r.Float64()}
		radius := 3 * r.Float64()
		got := AppendCellsInDisk(nil, g, p, radius)
		want := bruteCellsInDisk(g, p, radius)
		if len(got) != len(want) {
			t.Fatalf("p=%+v r=%v: got %v want %v", p, radius, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("p=%+v r=%v: got %v want %v (order must be ascending)", p, radius, got, want)
			}
		}
	}
}

func TestCellsInDiskEdgeCases(t *testing.T) {
	g := geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 2, 2)
	if got := AppendCellsInDisk(nil, g, geo.Point{X: 1, Y: 1}, -1); got != nil {
		t.Fatalf("negative radius returned %v", got)
	}
	if got := AppendCellsInDisk(nil, g, geo.Point{X: 1, Y: 1}, math.NaN()); got != nil {
		t.Fatalf("NaN radius returned %v", got)
	}
	if got := AppendCellsInDisk(nil, g, geo.Point{X: 1, Y: 1}, math.Inf(1)); len(got) != g.Cells() {
		t.Fatalf("infinite radius returned %v, want every cell", got)
	}
	// Zero radius: exactly the containing cell for an in-region point; a
	// point outside the region overlaps nothing (no CellOf-style clamping).
	if got := AppendCellsInDisk(nil, g, geo.Point{X: 1, Y: 1}, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("zero radius returned %v, want [0]", got)
	}
	if got := AppendCellsInDisk(nil, g, geo.Point{X: -99, Y: 99}, 0); got != nil {
		t.Fatalf("off-map zero radius returned %v, want nothing", got)
	}
	// A disk tangent to the shared boundary sees both sides.
	if got := AppendCellsInDisk(nil, g, geo.Point{X: 1, Y: 1.5}, 0.5); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("tangent disk returned %v, want [0 2]", got)
	}
}

// refCellsInDisk is AppendCellsInDisk as it was before the
// rasteriser's per-axis gaps — a geo.CellRect and four math.Max per
// candidate cell — kept as the oracle AppendCellsInDisk is compared against.
func refCellsInDisk(dst []int, g geo.Grid, p geo.Point, r float64) []int {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 1) {
		if math.IsInf(r, 1) {
			for i := 0; i < g.Cells(); i++ {
				dst = append(dst, i)
			}
		}
		return dst
	}
	c0 := g.CellOf(geo.Point{X: p.X - r, Y: p.Y - r})
	c1 := g.CellOf(geo.Point{X: p.X + r, Y: p.Y + r})
	row0, col0 := c0/g.Cols, c0%g.Cols
	row1, col1 := c1/g.Cols, c1%g.Cols
	for row := row0; row <= row1; row++ {
		for col := col0; col <= col1; col++ {
			i := row*g.Cols + col
			rect := g.CellRect(i)
			dx := math.Max(0, math.Max(rect.MinX-p.X, p.X-rect.MaxX))
			dy := math.Max(0, math.Max(rect.MinY-p.Y, p.Y-rect.MaxY))
			if dx*dx+dy*dy <= r*r {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// TestCellSetDiskMatchesReference: AppendCellsInDisk lists exactly the cells the
// old rasteriser returned, in the same ascending order — on random grids of
// up to 169 cells and random disks, and on the cases a rewrite gets wrong:
// tangent disks, centres on cell corners and off the region, zero, negative,
// NaN and infinite radii, non-finite centres. Appended to a reused buffer
// that already holds an entry, the cells follow it and the entry stays.
func TestCellSetDiskMatchesReference(t *testing.T) {
	var buf []int
	check := func(g geo.Grid, p geo.Point, r float64) {
		t.Helper()
		want := refCellsInDisk(nil, g, p, r)
		if got := AppendCellsInDisk(nil, g, p, r); !slices.Equal(got, want) {
			t.Fatalf("grid %+v p=%+v r=%v: AppendCellsInDisk %v, reference %v", g, p, r, got, want)
		}
		buf = AppendCellsInDisk(append(buf[:0], -1), g, p, r)
		if buf[0] != -1 || !slices.Equal(buf[1:], want) {
			t.Fatalf("grid %+v p=%+v r=%v: appended to [-1] %v, reference %v", g, p, r, buf, want)
		}
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3000; trial++ {
		g := geo.NewGrid(geo.Rect{MinX: -3 + rng.Float64(), MinY: rng.Float64(), MaxX: 2 + 8*rng.Float64(), MaxY: 3 + 5*rng.Float64()}, 1+rng.Intn(13), 1+rng.Intn(13))
		check(g, geo.Point{X: -6 + 20*rng.Float64(), Y: -4 + 16*rng.Float64()}, 4*rng.Float64())
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, g := range []geo.Grid{
		geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 2, 2),
		geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 6, 6),
		geo.NewGrid(geo.Rect{MinX: -1, MinY: 2, MaxX: 8, MaxY: 5}, 7, 11), // 77 cells
	} {
		for _, p := range []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1.5}, {X: 2, Y: 2}, {X: 0, Y: 0}, {X: 4, Y: 4}, {X: 4, Y: 1},
			{X: -99, Y: 99}, {X: 5, Y: 2}, {X: 2, Y: -0.5}, {X: nan, Y: 1}, {X: 1, Y: nan}, {X: inf, Y: 1}, {X: -inf, Y: inf}} {
			for _, r := range []float64{0, 0.5, 1, 2, 100, -1, -inf, nan, inf} {
				check(g, p, r)
			}
		}
	}
}

// TestIndexCandidatesMatchWithin pins the candidate query the planners use:
// the same tasks as the pool-ordered query, each with the distance geo.Dist
// gives, in an order that depends on the pool and the query alone — not on
// which Index answered, nor on what it indexed before.
func TestIndexCandidatesMatchWithin(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var reused Index
	for trial := 0; trial < 60; trial++ {
		span := 0.5 + r.Float64()*8
		tasks := randomTasks(r, 1+r.Intn(300), span)
		cell := math.Pow(10, -1+2*r.Float64()) * span / 10
		if trial%10 == 9 {
			cell = 0 // flat mode
		}
		fresh := NewIndex(tasks, cell)
		reused.Reset(tasks, cell)
		if cell > 0 && !slices.Equal(fresh.grid.order, reused.grid.order) {
			t.Fatalf("trial %d: two indexes over one pool lay their cells out differently", trial)
		}
		for q := 0; q < 20; q++ {
			p := geo.Point{X: r.Float64()*span*1.4 - span*0.2, Y: r.Float64()*span*1.4 - span*0.2}
			radius := r.Float64() * span / 2
			got, checked := fresh.AppendCandidates(nil, p, radius)
			if again, _ := reused.AppendCandidates(nil, p, radius); !slices.Equal(got, again) {
				t.Fatalf("trial %d: two indexes over one pool answer in different orders:\n%v\n%v", trial, got, again)
			}
			if checked < len(got) || checked > len(tasks) || cell == 0 && checked != len(tasks) {
				t.Fatalf("trial %d: %d distances checked for %d candidates of %d tasks", trial, checked, len(got), len(tasks))
			}
			var pos []int32
			for _, c := range got {
				if d := geo.Dist(p, tasks[c.Pos].Loc); c.Dist != d {
					t.Fatalf("trial %d: task %d at distance %v reported at %v", trial, c.Pos, d, c.Dist)
				}
				pos = append(pos, c.Pos)
			}
			slices.Sort(pos)
			var byPos []*core.Task
			for _, i := range pos {
				byPos = append(byPos, tasks[i])
			}
			if want := fresh.AppendWithin(nil, p, radius); !slices.Equal(byPos, want) {
				t.Fatalf("trial %d: candidates %v, within %v", trial, pos, want)
			}
			if len(pos) != len(bruteWithin(tasks, p, radius)) {
				t.Fatalf("trial %d: %d candidates, linear scan finds %d", trial, len(pos), len(bruteWithin(tasks, p, radius)))
			}
		}
	}
}

// TestSparseExtentBoundsGrid: a cell size far below the data's spacing must
// not buy a grid the size of the area — the index enlarges the cell until
// there are about two cells per task — and queries stay exact at the enlarged
// size, near the data and absurdly far from it.
func TestSparseExtentBoundsGrid(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	for _, n := range []int{1, 2, 30, 500} {
		tasks := randomTasks(r, n, 100)
		ix := NewIndex(tasks, 0.01) // 10^8 cells of 10 m over 100 km
		if len(ix.grid.start) > 2*n+3 || ix.CellSize() < 0.01 {
			t.Fatalf("%d tasks: %d cell offsets at cell size %v", n, len(ix.grid.start), ix.CellSize())
		}
		for q := 0; q < 50; q++ {
			p := geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
			radius := r.Float64() * 5
			sameTasks(t, ix.AppendWithin(nil, p, radius), bruteWithin(tasks, p, radius))
		}
		for _, far := range []geo.Point{{X: 1e300, Y: 50}, {X: 50, Y: -1e300}, {X: -1e300, Y: 1e300}, {X: math.Inf(1), Y: 0}, {X: math.NaN(), Y: 0}} {
			sameTasks(t, ix.AppendWithin(nil, far, 3), bruteWithin(tasks, far, 3))
		}
	}
}

// TestGridWithinBoxMatchesBruteForce: a grid laid out over the points inside a
// box alone answers every query about a disc inside the box with exactly the
// points a scan finds — the box's edges included, points outside it never
// needed — and a box that is empty or not finite leaves a grid that scans.
func TestGridWithinBoxMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		pts := make([]geo.Point, 1+r.Intn(300))
		for i := range pts {
			pts[i] = geo.Point{X: float64(r.Intn(40)) / 4, Y: float64(r.Intn(40)) / 4} // ties, and points on the box's edges
		}
		box := geo.Rect{MinX: float64(r.Intn(20)) / 4, MinY: float64(r.Intn(20)) / 4}
		box.MaxX, box.MaxY = box.MinX+float64(1+r.Intn(20))/4, box.MinY+float64(1+r.Intn(20))/4
		var g Grid
		g.ResetWithin(pts, box, 0.1+r.Float64())
		for q := 0; q < 40; q++ {
			radius := r.Float64() * min(box.Width(), box.Height()) / 2
			p := geo.Point{X: box.MinX + radius + r.Float64()*(box.Width()-2*radius), Y: box.MinY + radius + r.Float64()*(box.Height()-2*radius)}
			if q%2 == 0 { // a disc touching an edge of the box, where points lie
				radius = float64(r.Intn(int(4*min(box.Width(), box.Height())/2)+1)) / 4
				p = []geo.Point{{X: box.MinX + radius, Y: box.MinY + radius}, {X: box.MaxX - radius, Y: box.MaxY - radius}}[q%4/2]
			}
			got, _ := g.AppendCandidates(nil, p, radius)
			var pos, want []int32
			for _, c := range got {
				pos = append(pos, c.Pos)
			}
			for i, x := range pts {
				if geo.Dist(p, x) <= radius {
					want = append(want, int32(i))
				}
			}
			slices.Sort(pos)
			if !slices.Equal(pos, want) {
				t.Fatalf("trial %d: disc (%v, %v) in %v finds %v, a scan %v", trial, p, radius, box, pos, want)
			}
		}
	}
	pts := []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	for _, box := range []geo.Rect{
		{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)},
		{MinX: math.NaN(), MaxX: 3, MaxY: 3},
		{MinX: math.Inf(-1), MaxX: 3, MaxY: 3},
	} {
		var g Grid
		if g.ResetWithin(pts, box, 1); g.CellSize() != 0 {
			t.Fatalf("box %v: cell size %v, want a grid that scans", box, g.CellSize())
		}
		if got, checked := g.AppendCandidates(nil, geo.Point{X: 2, Y: 2}, 0.5); len(got) != 1 || checked != len(pts) {
			t.Fatalf("box %v: %v after %d checks", box, got, checked)
		}
	}
}
