package spatial

import (
	"math"
	"math/bits"

	"repro/internal/geo"
)

// CellSet is a set of grid cells as a bitset, one bit per cell index, a word
// per 64 cells: what CellsInDisk rasterises a disk into before listing it.
type CellSet []uint64

// Add inserts cell c.
//
//datawa:hotpath
func (s CellSet) Add(c int) { s[c>>6] |= 1 << (c & 63) }

// AddDisk inserts every cell of g whose rectangle intersects the closed disk
// of radius r around p: a negative or NaN r none, +Inf every cell wherever p
// is. The candidates are the cells between those holding the corners of the
// disk's bounding square; one passes when the distance from p to the nearest
// point of its rectangle (geo.Grid.CellRect's edges) is at most r. The cells'
// upper edges are exclusive (they tile disjointly), but the closed-rectangle
// distance is what makes a disk tangent to a boundary see both sides —
// exactly the conservative behavior replication wants.
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

// AppendCells appends the set's cells to dst in ascending order.
func (s CellSet) AppendCells(dst []int) []int {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}
