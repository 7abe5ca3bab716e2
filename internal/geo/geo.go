// Package geo provides the spatial substrate for the DATA-WA framework:
// planar points, Euclidean distances, a constant-speed travel model, and a
// uniform grid partition of the study area used by the task demand predictor.
//
// Units follow the paper: distances are kilometers, times are seconds.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in kilometers.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between a and b in kilometers.
func Dist(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Lerp returns the point a + t*(b-a). t is clamped to [0,1].
func Lerp(a, b Point, t float64) Point {
	if t <= 0 {
		return a
	}
	if t >= 1 {
		return b
	}
	return Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
}

// TravelModel converts distances to travel times. The paper does not fix a
// road model, so workers move in straight lines at constant Speed
// (kilometers per second). The zero value is unusable; use NewTravelModel.
type TravelModel struct {
	// Speed is the worker speed in km/s. DefaultSpeed corresponds to
	// 10 m/s (36 km/h), a typical urban driving speed.
	Speed float64
}

// DefaultSpeed is 10 m/s expressed in km/s.
const DefaultSpeed = 0.01

// NewTravelModel returns a travel model with the given speed in km/s.
// Non-positive speeds fall back to DefaultSpeed.
func NewTravelModel(speed float64) TravelModel {
	if speed <= 0 {
		speed = DefaultSpeed
	}
	return TravelModel{Speed: speed}
}

// Time returns the travel time c(a,b) in seconds.
func (m TravelModel) Time(a, b Point) float64 {
	return Dist(a, b) / m.Speed
}

// TimeForDist returns the travel time for a raw distance in kilometers.
func (m TravelModel) TimeForDist(d float64) float64 {
	return d / m.Speed
}

// DistWithin bounds from above the distance coverable in time t: every d with
// TimeForDist(d) ≤ t is at most it, the rounding of both included. It is NaN
// where t or the speed is.
func (m TravelModel) DistWithin(t float64) float64 {
	d := t * m.Speed
	return d + d*0x1p-30 + 0x1p-1000
}

// Rect is an axis-aligned rectangle with Min ≤ Max on both axes.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside r (inclusive of the lower edges,
// exclusive of the upper edges, so grid cells tile the region disjointly).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), math.Nextafter(r.MaxX, r.MinX)),
		Y: math.Min(math.Max(p.Y, r.MinY), math.Nextafter(r.MaxY, r.MinY)),
	}
}

// Grid partitions a rectangular study area into Rows × Cols disjoint uniform
// cells, as in Section III of the paper ("partitioning the study area into
// disjoint and uniform grids"). Cells are indexed row-major in [0, Cells()).
type Grid struct {
	Region Rect
	Rows   int
	Cols   int
}

// NewGrid returns a grid over region with the given dimensions.
// It panics if rows or cols is not positive or the region is degenerate,
// since a malformed grid is a programming error, not a runtime condition.
func NewGrid(region Rect, rows, cols int) Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("geo: invalid grid dimensions %dx%d", rows, cols))
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		panic(fmt.Sprintf("geo: degenerate grid region %+v", region))
	}
	return Grid{Region: region, Rows: rows, Cols: cols}
}

// Cells returns the number of grid cells M.
func (g Grid) Cells() int { return g.Rows * g.Cols }

// CellOf returns the index of the cell containing p. Points outside the
// region are clamped to the nearest boundary cell, so every point maps to a
// valid cell; this mirrors how city traces snap off-map GPS fixes. The
// clamp happens in the float domain: a coordinate beyond int range — or NaN,
// which fails every ordered comparison — resolves to a boundary cell instead
// of feeding an implementation-defined float→int conversion.
func (g Grid) CellOf(p Point) int { return g.RowOf(p.Y)*g.Cols + g.ColOf(p.X) }

// ColOf returns the column of the cells containing x, clamped like CellOf.
func (g Grid) ColOf(x float64) int {
	return axisCell((x-g.Region.MinX)/(g.Region.Width()/float64(g.Cols)), g.Cols)
}

// RowOf returns the row of the cells containing y, clamped like CellOf.
func (g Grid) RowOf(y float64) int {
	return axisCell((y-g.Region.MinY)/(g.Region.Height()/float64(g.Rows)), g.Rows)
}

// axisCell clamps a coordinate in cell units to a row or column of n.
func axisCell(v float64, n int) int {
	if !(v > 0) { // also catches NaN
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// CellRect returns the rectangle covered by cell i.
func (g Grid) CellRect(i int) Rect {
	row, col := i/g.Cols, i%g.Cols
	cw := g.Region.Width() / float64(g.Cols)
	ch := g.Region.Height() / float64(g.Rows)
	return Rect{
		MinX: g.Region.MinX + float64(col)*cw,
		MinY: g.Region.MinY + float64(row)*ch,
		MaxX: g.Region.MinX + float64(col+1)*cw,
		MaxY: g.Region.MinY + float64(row+1)*ch,
	}
}

// Center returns the center point of cell i.
func (g Grid) Center(i int) Point { return g.CellRect(i).Center() }

// Neighbors returns the 4-connected neighbor cell indices of cell i.
func (g Grid) Neighbors(i int) []int {
	row, col := i/g.Cols, i%g.Cols
	out := make([]int, 0, 4)
	if row > 0 {
		out = append(out, (row-1)*g.Cols+col)
	}
	if row < g.Rows-1 {
		out = append(out, (row+1)*g.Cols+col)
	}
	if col > 0 {
		out = append(out, row*g.Cols+col-1)
	}
	if col < g.Cols-1 {
		out = append(out, row*g.Cols+col+1)
	}
	return out
}
