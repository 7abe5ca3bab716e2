package dispatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// shardMap is the explicit cell→shard ownership table of a sharded
// dispatcher. Ownership is banded: cell c belongs to shard c·S/M (M grid
// cells, S shards), so each shard owns one contiguous row-major range of
// cells. Contiguity minimizes the boundary surface between shards — a task's
// reachability disk crosses into at most a few foreign bands — which keeps
// the ghost-replication volume of the halo protocol proportional to the
// boundary length, not to the task count. The ownership table is immutable:
// routing stays a pure function of the event, preserving the dispatcher's
// determinism contract. The two scratch buffers belong to shardsInDisk, which
// only the epoch path calls, under the dispatcher's lock.
type shardMap struct {
	grid   geo.Grid
	shards int
	owner  []int // cell index → owning shard
	cells  []int // shardsInDisk's disk cells
	out    []int // shardsInDisk's result
}

func newShardMap(g geo.Grid, shards int) *shardMap {
	sm := &shardMap{grid: g, shards: shards, owner: make([]int, g.Cells())}
	cells := g.Cells()
	for c := range sm.owner {
		sm.owner[c] = c * shards / cells
	}
	return sm
}

// ownerOf routes a location to the shard owning its grid cell.
func (sm *shardMap) ownerOf(p geo.Point) int {
	return sm.owner[sm.grid.CellOf(p)]
}

// shardsInDisk returns the distinct shards owning at least one grid cell
// overlapped by the closed disk of radius r around p, excluding `exclude`,
// in ascending shard order — the replication targets for a task at p whose
// halo disk crosses shard boundaries. The result is the map's storage, valid
// until the next call.
//
//datawa:hotpath
func (sm *shardMap) shardsInDisk(p geo.Point, r float64, exclude int) []int {
	sm.out = sm.out[:0]
	if r < 0 || math.IsNaN(r) {
		return sm.out
	}
	// Interior fast path: every cell of the disk's bounding box has an index
	// between the box's two extreme corners, and banded ownership is
	// monotone in cell index — equal owners at the extremes mean one owner
	// for the whole box, so interior tasks (the vast majority) skip the
	// per-cell scan entirely.
	lo := sm.grid.CellOf(geo.Point{X: p.X - r, Y: p.Y - r})
	hi := sm.grid.CellOf(geo.Point{X: p.X + r, Y: p.Y + r})
	if sm.owner[lo] == sm.owner[hi] {
		if s := sm.owner[lo]; s != exclude {
			sm.out = append(sm.out, s)
		}
		return sm.out
	}
	sm.cells = spatial.AppendCellsInDisk(sm.cells[:0], sm.grid, p, r)
	seen := -1 // banded ownership is monotone in cell order, so dedup is a scan
	for _, c := range sm.cells {
		s := sm.owner[c]
		if s == exclude || s == seen {
			continue
		}
		seen = s
		sm.out = append(sm.out, s)
	}
	return sm.out
}
