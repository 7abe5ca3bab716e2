// Package spatial provides a uniform grid index over task locations, the
// data structure behind the O(|W|·k) reachability queries of the planning
// pipeline. A planning instant builds one Index over the open task pool and
// answers every worker's "which tasks lie within my reachable distance d?"
// by scanning only the grid cells the query disc overlaps, instead of the
// whole pool (Section IV-A.1 of the DATA-WA paper describes the constraint
// being evaluated; the index changes its cost, not its answer).
//
// The cell size is normally derived from the largest worker reach radius at
// the instant: with cell ≥ d, a radius-d query touches at most 3×3 cells.
// Cells are stored sparsely (a map keyed by cell coordinates), so a tiny
// reach radius inside a huge study area costs memory proportional to the
// number of occupied cells, never to the area.
//
// Queries are exact and deterministic: Within returns precisely the tasks
// with Euclidean distance ≤ r from the query point, in the order the tasks
// were given to NewIndex, regardless of cell geometry. The brute-force scan
// and the index are therefore interchangeable everywhere — the invariant the
// package tests pin down against a linear-scan oracle.
//
// Cost model: building an Index is O(|S|) map inserts; one radius-d query
// scans the cells the disc overlaps plus an exact distance check per
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

// CellsInDisk returns the indices of the cells of g whose rectangle
// intersects the closed disk of radius r around p, in ascending (row-major)
// cell order. It is the boundary-disk query behind cross-shard task handoff
// (internal/dispatch): the cells a reachability disk overlaps determine
// which shards must see a replica of the task at its center. A negative or
// NaN r returns nil; +Inf returns every cell; r == 0 returns the cell
// containing an in-region p. The test (CellSet.AddDisk) is exact
// rectangle–disk intersection, so a point outside the region reaches only the
// cells its disk truly overlaps (unlike Grid.CellOf, which clamps).
func CellsInDisk(g geo.Grid, p geo.Point, r float64) []int {
	return AppendCellsInDisk(nil, g, p, r)
}

// AppendCellsInDisk is CellsInDisk appending into dst.
func AppendCellsInDisk(dst []int, g geo.Grid, p geo.Point, r float64) []int {
	var stack [4]uint64 // grids of up to 256 cells rasterise without allocating
	words := (g.Cells() + 63) / 64
	s := slices.Grow(CellSet(stack[:0]), words)[:words]
	s.AddDisk(g, p, r)
	return s.AppendCells(dst)
}

// Index is a uniform grid over a fixed set of tasks. Between Reset calls it
// is immutable and safe for concurrent queries from multiple goroutines.
type Index struct {
	tasks []*core.Task
	cell  float64
	// origin anchors cell (0,0); using the data's own min corner keeps cell
	// coordinates small and well-conditioned.
	originX, originY float64
	// buckets maps packed cell coordinates to a start<<32|end range into
	// order; order holds task indices grouped by cell, ascending within each
	// group. The range encoding (instead of a slice per bucket) is what lets
	// Reset rebuild the index every planning instant without allocating.
	buckets map[uint64]uint64
	order   []int32
	// flat is the no-grid fallback used when the cell size is unusable
	// (no tasks, or a non-positive/non-finite cell): every query scans all
	// tasks, preserving exactness.
	flat bool
}

// CellSizeForReach derives the index cell size from the largest worker reach
// radius at a planning instant. Using the maximum keeps every worker's query
// disc within a 3×3 cell neighborhood; smaller per-worker radii simply scan
// fewer cells.
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
// reusing the bucket map and index storage of previous generations. It is
// the steady-state path for planners that index the open pool once per
// instant; queries from other goroutines must not overlap a Reset.
func (ix *Index) Reset(tasks []*core.Task, cellSize float64) {
	ix.tasks = tasks
	ix.cell = cellSize
	ix.flat = false
	if len(tasks) == 0 || cellSize <= 0 || math.IsInf(cellSize, 1) || math.IsNaN(cellSize) {
		ix.flat = true
		return
	}
	ix.originX, ix.originY = tasks[0].Loc.X, tasks[0].Loc.Y
	for _, t := range tasks {
		ix.originX = math.Min(ix.originX, t.Loc.X)
		ix.originY = math.Min(ix.originY, t.Loc.Y)
	}
	if ix.buckets == nil {
		ix.buckets = make(map[uint64]uint64, len(tasks))
	} else {
		clear(ix.buckets)
	}
	// Counting sort into the order array: per-bucket counts, then cursors
	// (start<<32|next), then an ascending fill — which leaves every value as
	// start<<32|end and every group in ascending task order.
	for _, t := range tasks {
		key := ix.key(ix.cellCoord(t.Loc.X, ix.originX), ix.cellCoord(t.Loc.Y, ix.originY))
		ix.buckets[key]++
	}
	var total uint64
	for key, count := range ix.buckets {
		ix.buckets[key] = total<<32 | total
		total += count
	}
	ix.order = slices.Grow(ix.order[:0], len(tasks))[:len(tasks)]
	for i, t := range tasks {
		key := ix.key(ix.cellCoord(t.Loc.X, ix.originX), ix.cellCoord(t.Loc.Y, ix.originY))
		v := ix.buckets[key]
		ix.order[uint32(v)] = int32(i)
		ix.buckets[key] = v + 1
	}
}

// Len returns the number of indexed tasks.
func (ix *Index) Len() int { return len(ix.tasks) }

// CellSize returns the cell edge length the index was built with (0 when the
// index runs in its degenerate full-scan mode).
func (ix *Index) CellSize() float64 {
	if ix.flat {
		return 0
	}
	return ix.cell
}

// Tasks returns the indexed task slice in construction order.
func (ix *Index) Tasks() []*core.Task { return ix.tasks }

func (ix *Index) cellCoord(v, origin float64) int32 {
	return int32(math.Floor((v - origin) / ix.cell))
}

func (ix *Index) key(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// Within returns the tasks at Euclidean distance ≤ r from p, in the order
// they were passed to NewIndex. r < 0 returns nil; r == 0 returns tasks
// exactly at p.
func (ix *Index) Within(p geo.Point, r float64) []*core.Task {
	return ix.AppendWithin(nil, p, r)
}

// AppendWithin appends the tasks within distance r of p to dst and returns
// the extended slice, letting per-worker query loops reuse one buffer.
func (ix *Index) AppendWithin(dst []*core.Task, p geo.Point, r float64) []*core.Task {
	// The stack buffer covers typical per-query candidate counts, so the
	// steady-state planning loop performs no heap allocation here.
	var hits [64]int32
	for _, i := range ix.AppendIndicesWithin(hits[:0], p, r) {
		dst = append(dst, ix.tasks[i])
	}
	return dst
}

// AppendIndicesWithin is AppendWithin returning positions into Tasks()
// instead of the tasks themselves, ascending — the form planners use to give
// every pool task one dense index for the whole planning instant.
func (ix *Index) AppendIndicesWithin(dst []int32, p geo.Point, r float64) []int32 {
	if r < 0 || math.IsNaN(r) {
		return dst
	}
	// A query disc spanning more cells than there are tasks is cheaper to
	// answer by scanning the tasks; this also covers r = +Inf and discs so
	// large the cell coordinates would overflow int32, so the span check
	// happens in float64 before any integer conversion.
	spanX := math.Floor((p.X+r-ix.originX)/ix.cell) - math.Floor((p.X-r-ix.originX)/ix.cell) + 1
	spanY := math.Floor((p.Y+r-ix.originY)/ix.cell) - math.Floor((p.Y-r-ix.originY)/ix.cell) + 1
	if ix.flat || !(spanX*spanY <= float64(len(ix.tasks))) {
		for i, t := range ix.tasks {
			if geo.Dist(p, t.Loc) <= r {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	cx0 := ix.cellCoord(p.X-r, ix.originX)
	cx1 := ix.cellCoord(p.X+r, ix.originX)
	cy0 := ix.cellCoord(p.Y-r, ix.originY)
	cy1 := ix.cellCoord(p.Y+r, ix.originY)

	// Collect candidate indices cell by cell, then restore construction
	// order so the result is identical to the brute-force scan's.
	start := len(dst)
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			v, ok := ix.buckets[ix.key(cx, cy)]
			if !ok {
				continue
			}
			for _, i := range ix.order[v>>32 : uint32(v)] {
				if geo.Dist(p, ix.tasks[i].Loc) <= r {
					dst = append(dst, i)
				}
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}
