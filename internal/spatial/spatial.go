// Package spatial provides a uniform grid over point locations, the data
// structure behind the O(|W|·k) reachability queries of the planning
// pipeline. A planning instant builds one Index (a Grid over the open task
// pool) and answers every worker's "which tasks lie within distance d of
// me?" by scanning only the grid cells the query disc overlaps, instead of
// the whole pool (Section IV-A.1 of the DATA-WA paper describes the
// constraints being evaluated; the index changes their cost, not their
// answer). A planner's d is the worker's reach, narrowed by how far it can
// travel before its shift ends and before the pool's latest expiry
// (Index.LatestExpiry): a task past that cannot be reached in time. When the
// open tasks are the fewer, a planner lays the workers out in a Grid instead
// and asks the converse question once per task.
//
// The cell size is normally the widest such disc at the instant: with
// cell ≥ d, a radius-d query touches at most 3×3 cells (CellSizeForReach is
// the widest reach, for callers that query with the full reach).
// Cells are a dense row-major array over the tasks' bounding box, and the
// index enlarges the cell until there are at most two cells per task, so a
// tiny disc inside a huge study area costs memory proportional to the
// number of tasks, never to the area.
//
// Queries are exact and deterministic: AppendWithin returns precisely the
// tasks with Euclidean distance ≤ r from the query point, in the order the
// tasks were given to NewIndex, regardless of cell geometry. The brute-force
// scan and the index are therefore interchangeable everywhere — the invariant
// the package tests pin down against a linear-scan oracle.
//
// Cost model: building an Index is a counting sort of |S| tasks by cell, no
// hashing; one radius-d query scans the cells the disc overlaps — one
// contiguous range per grid column — plus an exact distance check per
// candidate. The win over brute force grows with task count and demand
// concentration — the courier-grid archetype (hundreds of tasks packed into
// a 3 km square) is the regime the index exists for, while sparse-suburb
// (tens of tasks spread over 144 km²) leaves so few candidates per query
// that the linear scan is competitive. The scenario atlas
// (internal/scenario, docs/SCENARIOS.md) names both regimes so the benchmark
// suite exercises the index at its best and worst.
package spatial

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
)

// AppendCellsInDisk appends to dst the indices of the cells of g whose
// rectangle intersects the closed disk of radius r around p, in ascending
// (row-major) cell order, and returns the extended slice. It is the
// boundary-disk query behind cross-shard task handoff (internal/dispatch):
// the cells a reachability disk overlaps determine which shards must see a
// replica of the task at its center, and the caller's buffer is reused
// across tasks. A negative or NaN r appends nothing; +Inf appends every cell
// wherever p is; r == 0 appends the cell containing an in-region p.
//
// The candidates are the cells between those holding the corners of the
// disk's bounding square; one passes when the distance from p to the nearest
// point of its rectangle (geo.Grid.CellRect's edges) is at most r. That is
// exact rectangle–disk intersection, so a point outside the region reaches
// only the cells its disk truly overlaps (unlike Grid.CellOf, which clamps).
// The cells' upper edges are exclusive (they tile disjointly), but the
// closed-rectangle distance is what makes a disk tangent to a boundary see
// both sides — exactly the conservative behavior replication wants.
//
//datawa:hotpath
func AppendCellsInDisk(dst []int, g geo.Grid, p geo.Point, r float64) []int {
	if r < 0 || math.IsNaN(r) {
		return dst
	}
	row0, row1, col0, col1 := 0, g.Rows-1, 0, g.Cols-1
	all := math.IsInf(r, 1)
	if !all {
		row0, col0 = g.RowOf(p.Y-r), g.ColOf(p.X-r)
		row1, col1 = g.RowOf(p.Y+r), g.ColOf(p.X+r)
	}
	cw := g.Region.Width() / float64(g.Cols)
	ch := g.Region.Height() / float64(g.Rows)
	rr := r * r
	for row := row0; row <= row1; row++ {
		dy := axisGap(g.Region.MinY, ch, row, p.Y)
		for col := col0; col <= col1; col++ {
			if dx := axisGap(g.Region.MinX, cw, col, p.X); all || dx*dx+dy*dy <= rr {
				dst = append(dst, row*g.Cols+col)
			}
		}
	}
	return dst
}

// axisGap is the distance along one axis from coordinate v to the closed
// extent [lo+i·step, lo+(i+1)·step] of cell row or column i.
func axisGap(lo, step float64, i int, v float64) float64 {
	return max(0, lo+float64(i)*step-v, v-(lo+float64(i+1)*step))
}

// Grid is a uniform grid over a fixed set of points, the one grid
// construction of the package: Index lays the task pool out in one, and a
// planner that gathers reachable sets from the task side (internal/wds) lays
// the workers on shift out in another. Between Reset calls it is immutable and
// safe for concurrent queries from multiple goroutines.
type Grid struct {
	pts  []geo.Point
	cell float64
	// origin anchors cell (0,0); using the data's own min corner keeps cell
	// coordinates small and well-conditioned.
	originX, originY float64
	// The grid is nx columns of ny cells, cell (cx, cy) numbered cx*ny+cy.
	// order holds point indices grouped by cell in that numbering, ascending
	// within a cell, and cell c is order[start[c]:start[c+1]] — so the layout
	// is a pure function of the points, a query's cells of one column are one
	// contiguous range, and Reset rebuilds it all every planning instant
	// without allocating or hashing.
	nx, ny int
	start  []int32
	order  []int32
	cells  []int32 // each point's cell, while Reset lays them out
	// flat is the no-grid fallback used when the cell size is unusable
	// (no points, a non-positive/non-finite cell, or a non-finite location):
	// every query scans all points, preserving exactness.
	flat bool
}

// Reset rebuilds the grid in place over a new point set and cell size,
// reusing the storage of previous generations. The points are retained, not
// copied or mutated; queries from other goroutines must not overlap a Reset.
// A non-positive or non-finite cell size yields a grid that answers queries
// by scanning every point.
func (g *Grid) Reset(pts []geo.Point, cellSize float64) {
	var box geo.Rect
	if len(pts) > 0 {
		box = geo.Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	}
	for _, p := range pts {
		box.MinX, box.MaxX = math.Min(box.MinX, p.X), math.Max(box.MaxX, p.X)
		box.MinY, box.MaxY = math.Min(box.MinY, p.Y), math.Max(box.MaxY, p.Y)
	}
	g.layout(pts, box, cellSize, true)
}

// ResetWithin is Reset for the points of pts inside box (edges included)
// alone: the grid spans box, and the points outside it are in no cell. A
// query about a disc inside box is answered exactly — every point it holds is
// inside box too — and a caller must ask about no other. A box that is empty
// or not finite yields a grid that scans every point.
func (g *Grid) ResetWithin(pts []geo.Point, box geo.Rect, cellSize float64) {
	g.layout(pts, box, cellSize, false)
}

// layout lays the points of pts inside box out in cells of at least cellSize
// over it — all of them, without a look, when the box is their own.
func (g *Grid) layout(pts []geo.Point, box geo.Rect, cellSize float64, all bool) {
	g.pts = pts
	g.flat = true
	if len(pts) == 0 || !(cellSize > 0) {
		return
	}
	// A cell no smaller than √(wh/n) and (w+h)/n bounds the w×h box's grid by
	// 2n+1 cells: (w/c+1)(h/c+1) = wh/c² + (w+h)/c + 1. Queries are exact at
	// any cell size; a larger one only scans more per cell. A NaN or inverted
	// box makes the cell NaN.
	n, w, h := float64(len(pts)), box.Width(), box.Height()
	g.cell = max(cellSize, math.Sqrt(w*h/n), (w+h)/n)
	if math.IsInf(g.cell, 1) || math.IsNaN(g.cell) {
		return
	}
	g.flat = false
	g.originX, g.originY = box.MinX, box.MinY
	g.nx, g.ny = g.cellCoord(box.MaxX, g.originX)+1, g.cellCoord(box.MaxY, g.originY)+1

	// Counting sort into the order array: per-cell counts two slots up,
	// prefix sums — which leave start[c+1] at the beginning of cell c — then
	// an ascending fill that advances it to the cell's end.
	g.start = slices.Grow(g.start[:0], g.nx*g.ny+2)[:g.nx*g.ny+2]
	clear(g.start)
	g.cells = slices.Grow(g.cells[:0], len(pts))[:len(pts)]
	for i, p := range pts {
		c := -1
		if all || p.X >= box.MinX && p.X <= box.MaxX && p.Y >= box.MinY && p.Y <= box.MaxY {
			c = g.cellOf(p)
			g.start[c+2]++
		}
		g.cells[i] = int32(c)
	}
	for c := 2; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.order = slices.Grow(g.order[:0], len(pts))[:g.start[len(g.start)-1]]
	for i, c := range g.cells {
		if c >= 0 {
			g.order[g.start[c+1]] = int32(i)
			g.start[c+1]++
		}
	}
}

// CellSize returns the cell edge length the grid was built with (0 when the
// grid runs in its degenerate full-scan mode).
func (g *Grid) CellSize() float64 {
	if g.flat {
		return 0
	}
	return g.cell
}

func (g *Grid) cellCoord(v, origin float64) int {
	return int(math.Floor((v - origin) / g.cell))
}

// cellOf returns the number of the cell holding a point of the grid.
func (g *Grid) cellOf(p geo.Point) int {
	return g.cellCoord(p.X, g.originX)*g.ny + g.cellCoord(p.Y, g.originY)
}

// Candidate is a point inside a query disc: its position in the grid's points
// (for an Index, in Tasks()) and its distance from the query point.
type Candidate struct {
	Dist float64
	Pos  int32
}

// AppendCandidates appends the points within distance r of p to dst with the
// distances the query computed, in cell order — grid column by column, point
// order inside a cell: a pure function of the points and the query, but not
// ascending. It is the form planners use — they rank candidates by distance
// anyway, and the position gives every point one dense index for the whole
// planning instant. checked is how many distances the query computed: the
// points of the cells it scanned, every point when it scans them all.
//
//datawa:hotpath
func (g *Grid) AppendCandidates(dst []Candidate, p geo.Point, r float64) (_ []Candidate, checked int) {
	if r < 0 || math.IsNaN(r) {
		return dst, 0
	}
	// A query disc spanning more cells than there are points is cheaper to
	// answer by scanning the points; this also covers r = +Inf. The span and
	// the clamp to the grid happen in float64, before any integer conversion:
	// a disc can lie astronomically far from the data.
	x0, x1 := math.Floor((p.X-r-g.originX)/g.cell), math.Floor((p.X+r-g.originX)/g.cell)
	y0, y1 := math.Floor((p.Y-r-g.originY)/g.cell), math.Floor((p.Y+r-g.originY)/g.cell)
	if g.flat || !((x1-x0+1)*(y1-y0+1) <= float64(len(g.pts))) {
		for i, q := range g.pts {
			if d := geo.Dist(p, q); d <= r {
				dst = append(dst, Candidate{d, int32(i)})
			}
		}
		return dst, len(g.pts)
	}
	cx0, cx1 := clamp(x0, 0, g.nx), clamp(x1, -1, g.nx-1)
	cy0, cy1 := clamp(y0, 0, g.ny), clamp(y1, -1, g.ny-1)
	for cx := cx0; cx <= cx1 && cy0 <= cy1; cx++ {
		cells := g.order[g.start[cx*g.ny+cy0]:g.start[cx*g.ny+cy1+1]]
		checked += len(cells)
		for _, i := range cells {
			if d := geo.Dist(p, g.pts[i]); d <= r {
				dst = append(dst, Candidate{d, i})
			}
		}
	}
	return dst, checked
}

// Index is a Grid over a fixed set of tasks, at their locations. Between Reset
// calls it is immutable and safe for concurrent queries from multiple
// goroutines.
type Index struct {
	grid   Grid
	tasks  []*core.Task
	locs   []geo.Point // tasks[i].Loc, the points of the grid
	exps   []float64   // tasks[i].Exp
	latest float64     // LatestExpiry(tasks)
}

// CellSizeForReach returns the largest worker reach radius at a planning
// instant: a cell size at which every worker's query disc of at most its reach
// lies within a 3×3 cell neighborhood. The planners of internal/wds and
// internal/assign size their indexes by the narrower disc each worker really
// queries with — its reach, bounded by the time its shift and the pool leave
// it (wds.IndexCell) — so this is the cell for a caller that queries with the
// full reach.
func CellSizeForReach(workers []*core.Worker) float64 {
	maxReach := 0.0
	for _, w := range workers {
		if w.Reach > maxReach {
			maxReach = w.Reach
		}
	}
	return maxReach
}

// NewIndex builds a grid index over tasks with the given cell size in
// kilometers. A non-positive or non-finite cell size yields a valid index
// that answers queries by scanning all tasks (the degenerate single-bucket
// grid), so callers never need to special-case zero-reach instants. The
// tasks slice is retained but not mutated.
func NewIndex(tasks []*core.Task, cellSize float64) *Index {
	ix := &Index{}
	ix.Reset(tasks, cellSize)
	return ix
}

// Reset rebuilds the index in place over a new task set and cell size,
// reusing the storage of previous generations. It is the steady-state path
// for planners that index the open pool once per instant; queries from other
// goroutines must not overlap a Reset.
func (ix *Index) Reset(tasks []*core.Task, cellSize float64) {
	ix.tasks, ix.latest = tasks, math.Inf(-1)
	ix.locs = slices.Grow(ix.locs[:0], len(tasks))[:len(tasks)]
	ix.exps = slices.Grow(ix.exps[:0], len(tasks))[:len(tasks)]
	for i, t := range tasks {
		ix.locs[i], ix.exps[i] = t.Loc, t.Exp
		ix.latest = max(ix.latest, t.Exp) // LatestExpiry's, in the same pass
	}
	ix.grid.Reset(ix.locs, cellSize)
}

// LatestExpiry returns the latest expiry among tasks: −Inf for none, and NaN
// if one of them is NaN, so that a bound drawn from it by a comparison falls
// away wherever one task's expiry is not a number.
func LatestExpiry(tasks []*core.Task) float64 {
	latest := math.Inf(-1)
	for _, t := range tasks {
		latest = max(latest, t.Exp) // the builtin keeps a NaN
	}
	return latest
}

// LatestExpiry returns LatestExpiry of the indexed tasks, as of the last
// Reset.
func (ix *Index) LatestExpiry() float64 { return ix.latest }

// Expiries returns the indexed tasks' expiries by position, Tasks()[i].Exp
// as of the last Reset, side by side: a planner checking its candidates'
// validity reads them without visiting the tasks.
func (ix *Index) Expiries() []float64 { return ix.exps }

// CellSize returns the cell edge length the index was built with (0 when the
// index runs in its degenerate full-scan mode).
func (ix *Index) CellSize() float64 { return ix.grid.CellSize() }

// AppendCandidates is Grid.AppendCandidates over the tasks' locations: the
// positions are positions in Tasks().
//
//datawa:hotpath
func (ix *Index) AppendCandidates(dst []Candidate, p geo.Point, r float64) (_ []Candidate, checked int) {
	return ix.grid.AppendCandidates(dst, p, r)
}

// Len returns the number of indexed tasks.
func (ix *Index) Len() int { return len(ix.tasks) }

// Tasks returns the indexed task slice in construction order.
func (ix *Index) Tasks() []*core.Task { return ix.tasks }

// AppendWithin appends the tasks at Euclidean distance ≤ r from p to dst, in
// the order they were passed to NewIndex, and returns the extended slice,
// letting per-worker query loops reuse one buffer. r < 0 appends nothing; r
// == 0 appends the tasks exactly at p.
func (ix *Index) AppendWithin(dst []*core.Task, p geo.Point, r float64) []*core.Task {
	// The stack buffers cover typical per-query candidate counts, so a query
	// loop performs no heap allocation here.
	var hits [64]Candidate
	var pos [64]int32
	near, _ := ix.AppendCandidates(hits[:0], p, r)
	order := pos[:0]
	for _, c := range near {
		order = append(order, c.Pos)
	}
	// Restore construction order, so the result is identical to the
	// brute-force scan's.
	slices.Sort(order)
	for _, i := range order {
		dst = append(dst, ix.tasks[i])
	}
	return dst
}

// clamp converts a cell coordinate computed in float64 to an int in [lo, hi].
func clamp(v float64, lo, hi int) int {
	return int(min(max(v, float64(lo)), float64(hi)))
}
