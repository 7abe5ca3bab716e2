package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 1.2}, Point{1.5, 1.2}, 0},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Keep coordinates bounded so float error stays tiny.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v, want %v", got, b)
	}
	if got := Lerp(a, b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp t=0.5 = %v", got)
	}
	if got := Lerp(a, b, -3); got != a {
		t.Errorf("Lerp clamps below: got %v", got)
	}
	if got := Lerp(a, b, 7); got != b {
		t.Errorf("Lerp clamps above: got %v", got)
	}
}

func TestTravelModel(t *testing.T) {
	m := NewTravelModel(0.01) // 10 m/s
	got := m.Time(Point{0, 0}, Point{0, 1})
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("1 km at 10 m/s = %v s, want 100", got)
	}
	if d := m.TimeForDist(0.5); math.Abs(d-50) > 1e-9 {
		t.Errorf("TimeForDist(0.5) = %v, want 50", d)
	}
}

// TestDistWithinBoundsTimeForDist: no distance whose travel time fits in t
// lies past DistWithin(t) — at the largest such distance too, the next float
// up from which no longer fits — over speeds and times from tiny to huge.
func TestDistWithinBoundsTimeForDist(t *testing.T) {
	f := func(speedExp, tExp int8, frac uint32) bool {
		m := TravelModel{Speed: math.Ldexp(1+float64(frac)/(1<<32), int(speedExp)/4)}
		limit := math.Ldexp(1+float64(frac>>7)/(1<<25), int(tExp)*4)
		d := limit * m.Speed
		for m.TimeForDist(d) > limit {
			d = math.Nextafter(d, 0)
		}
		for next := math.Nextafter(d, math.Inf(1)); m.TimeForDist(next) <= limit; next = math.Nextafter(d, math.Inf(1)) {
			d = next
		}
		return d <= m.DistWithin(limit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if d := NewTravelModel(0.01).DistWithin(math.NaN()); !math.IsNaN(d) {
		t.Errorf("DistWithin(NaN) = %v", d)
	}
}

func TestNewTravelModelDefaults(t *testing.T) {
	for _, s := range []float64{0, -1} {
		m := NewTravelModel(s)
		if m.Speed != DefaultSpeed {
			t.Errorf("NewTravelModel(%v).Speed = %v, want default", s, m.Speed)
		}
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 10, 4}
	if r.Width() != 10 || r.Height() != 4 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 0}) {
		t.Error("lower edge should be contained")
	}
	if r.Contains(Point{10, 2}) {
		t.Error("upper edge should be excluded")
	}
	if c := r.Center(); c != (Point{5, 2}) {
		t.Errorf("Center = %v", c)
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{0, 0, 10, 4}
	p := r.Clamp(Point{-5, 100})
	if !r.Contains(p) {
		t.Errorf("Clamp result %v not contained in %v", p, r)
	}
	inside := Point{3, 3}
	if got := r.Clamp(inside); got != inside {
		t.Errorf("Clamp of inside point moved it: %v", got)
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := NewGrid(Rect{0, 0, 8, 6}, 3, 4)
	if g.Cells() != 12 {
		t.Fatalf("Cells = %d", g.Cells())
	}
	for i := 0; i < g.Cells(); i++ {
		c := g.Center(i)
		if got := g.CellOf(c); got != i {
			t.Errorf("CellOf(Center(%d)) = %d", i, got)
		}
		if !g.CellRect(i).Contains(c) {
			t.Errorf("cell %d does not contain its own center", i)
		}
	}
}

func TestGridRoundTripProperty(t *testing.T) {
	g := NewGrid(Rect{-2, -3, 5, 9}, 7, 5)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		p := Point{math.Mod(x, 20), math.Mod(y, 20)}
		i := g.CellOf(p)
		if i < 0 || i >= g.Cells() {
			return false
		}
		// If the point is inside the region, its cell rect must contain it.
		if g.Region.Contains(p) {
			return g.CellRect(i).Contains(p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridCellsTileRegion(t *testing.T) {
	g := NewGrid(Rect{0, 0, 4, 4}, 4, 4)
	// Every sampled point in the region belongs to exactly one cell rect.
	for x := 0.05; x < 4; x += 0.31 {
		for y := 0.05; y < 4; y += 0.29 {
			p := Point{x, y}
			count := 0
			for i := 0; i < g.Cells(); i++ {
				if g.CellRect(i).Contains(p) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("point %v contained in %d cells", p, count)
			}
		}
	}
}

func TestGridClampsOutside(t *testing.T) {
	g := NewGrid(Rect{0, 0, 4, 4}, 2, 2)
	cases := []struct {
		p    Point
		want int
	}{
		{Point{-1, -1}, 0},
		{Point{100, -1}, 1},
		{Point{-1, 100}, 2},
		{Point{100, 100}, 3},
		// Magnitudes beyond int range and non-finite coordinates must clamp
		// in the float domain, never feed an implementation-defined
		// float→int conversion.
		{Point{1e308, -1e308}, 1},
		{Point{math.Inf(-1), math.Inf(1)}, 2},
		{Point{math.NaN(), math.NaN()}, 0},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(Rect{0, 0, 3, 3}, 3, 3)
	// Corner cell 0 has exactly 2 neighbors.
	if n := g.Neighbors(0); len(n) != 2 {
		t.Errorf("corner neighbors = %v", n)
	}
	// Center cell 4 has 4 neighbors.
	if n := g.Neighbors(4); len(n) != 4 {
		t.Errorf("center neighbors = %v", n)
	}
	// Neighborhood is symmetric.
	for i := 0; i < g.Cells(); i++ {
		for _, j := range g.Neighbors(i) {
			found := false
			for _, k := range g.Neighbors(j) {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Errorf("asymmetric neighbors: %d->%d", i, j)
			}
		}
	}
}

func TestNewGridPanics(t *testing.T) {
	cases := []func(){
		func() { NewGrid(Rect{0, 0, 1, 1}, 0, 3) },
		func() { NewGrid(Rect{0, 0, 1, 1}, 3, 0) },
		func() { NewGrid(Rect{0, 0, 0, 1}, 3, 3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
