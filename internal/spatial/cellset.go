package spatial

import (
	"math"
	"math/bits"

	"repro/internal/geo"
)

// CellSet is a set of grid cells as a bitset, one bit per cell index: the
// form dirty-cell tracking (stream.Machine) and component cell sets
// (assign.Incremental) keep, where a set is written many times per planning
// instant and read by word-wise AND/OR. All sets of one grid have the same
// length, fixed by NewCellSet.
type CellSet []uint64

// NewCellSet returns an empty set over a grid of the given number of cells.
func NewCellSet(cells int) CellSet { return make(CellSet, (cells+63)/64) }

// Add inserts cell c.
//
//datawa:hotpath
func (s CellSet) Add(c int) { s[c>>6] |= 1 << (c & 63) }

// Has reports whether cell c is in the set.
func (s CellSet) Has(c int) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// AddDisk inserts every cell of g whose rectangle intersects the closed disk
// of radius r around p: a negative or NaN r none, +Inf every cell wherever p
// is. The candidates are the cells between those holding the corners of the
// disk's bounding square; one passes when the distance from p to the nearest
// point of its rectangle (geo.Grid.CellRect's edges) is at most r. The cells'
// upper edges are exclusive (they tile disjointly), but the closed-rectangle
// distance is what makes a disk tangent to a boundary see both sides —
// exactly the conservative behavior replication and invalidation want.
//
//datawa:hotpath
func (s CellSet) AddDisk(g geo.Grid, p geo.Point, r float64) {
	if r < 0 || math.IsNaN(r) {
		return
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
				s.Add(row*g.Cols + col)
			}
		}
	}
}

// axisGap is the distance along one axis from coordinate v to the closed
// extent [lo+i·step, lo+(i+1)·step] of cell row or column i.
func axisGap(lo, step float64, i int, v float64) float64 {
	return max(0, lo+float64(i)*step-v, v-(lo+float64(i+1)*step))
}

// Union inserts every cell of o.
//
//datawa:hotpath
func (s CellSet) Union(o CellSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// Intersects reports whether s and o share a cell.
//
//datawa:hotpath
func (s CellSet) Intersects(o CellSet) bool {
	for i, w := range o {
		if s[i]&w != 0 {
			return true
		}
	}
	return false
}

// Reset empties the set.
func (s CellSet) Reset() { clear(s) }

// AppendCells appends the set's cells to dst in ascending order.
func (s CellSet) AppendCells(dst []int) []int {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}
