// Package workload synthesizes ride-hailing-style spatial crowdsourcing
// traces that statistically match the two proprietary datasets of the
// paper's evaluation (Table II): Yueche (|W|=624, |S|=11,052, 9:00–11:00,
// Chengdu) and DiDi (|W|=760, |S|=8,869, 21:00–23:00, Chengdu). The real
// traces are not redistributable, so these generators reproduce the
// *structure* the DATA-WA pipeline depends on:
//
//   - spatial demand concentrated around drifting hotspots over a city
//     rectangle, plus a uniform background;
//   - time-varying intensity with peaks (lunch/evening rush analogues);
//   - lagged cross-region demand dependencies — activity in a source cell
//     raises demand in a sink cell one prediction interval later, the exact
//     pattern the Demand Dependency Learning module is designed to learn
//     (the paper's university → restaurant-district example);
//   - regime switching: hotspot weights and dependency pairs change over
//     time, making the dependency structure *dynamic*, which separates
//     DDGNN (per-window adjacency) from Graph-WaveNet (static adjacency);
//   - workers whose availability windows [on, off) and reachable distances
//     follow Table III's parameter ranges.
//
// Everything is deterministic given Config.Seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/geo"
	"repro/internal/predict"
)

// Config parameterizes a synthetic scenario. The exported fields mirror the
// experiment parameters of Table III.
type Config struct {
	Name string
	Seed int64

	// Region is the city rectangle in kilometers.
	Region geo.Rect
	// GridRows × GridCols cells for demand prediction.
	GridRows, GridCols int

	// NumWorkers and NumTasks set |W| and |S| for the assignment window.
	NumWorkers, NumTasks int

	// Duration is the assignment window length in seconds (paper: 2 h);
	// HistoryDuration precedes t=0 and feeds prediction training (1 h).
	Duration, HistoryDuration float64

	// TaskValid is e − p in seconds (Table III default 40).
	TaskValid float64
	// WorkerReach is d in kilometers (Table III default 1).
	WorkerReach float64
	// WorkerAvail is off − on in seconds (Table III default 1 h).
	WorkerAvail float64

	// Hotspots is the number of demand centers.
	Hotspots int
	// HotspotStd is the spatial spread of each hotspot in kilometers.
	HotspotStd float64
	// Background is the fraction of tasks drawn uniformly over the region.
	Background float64

	// DependencyPairs is the number of source→sink lagged dependencies per
	// regime; DependencyLag is the delay in seconds; DependencyProb the
	// per-source-task probability of spawning a dependent task.
	DependencyPairs int
	DependencyLag   float64
	DependencyProb  float64
	// RegimePeriod switches hotspot weights and dependency pairs every
	// this many seconds.
	RegimePeriod float64

	// Peaks, when non-empty, replaces the default two-rush sinusoid with an
	// explicit temporal intensity profile: IntensityFloor plus one Gaussian
	// bump per peak. Scenario archetypes use it for regimes the default
	// shape cannot express — a sharp commuter bimodal, a stadium flash
	// crowd. An empty slice keeps the legacy profile and generates traces
	// byte-identical to earlier versions of this package.
	Peaks []IntensityPeak
	// IntensityFloor is the base arrival intensity under the peaks
	// (default 0.15; only read when Peaks is non-empty).
	IntensityFloor float64

	// HotspotZones, when non-empty, restricts hotspot placement: hotspot i
	// is centered inside HotspotZones[i mod len]. Archetypes use it to pin
	// demand to disjoint sub-regions (e.g. two cities far apart, stressing
	// dispatch sharding). Empty places hotspots anywhere on the grid.
	HotspotZones []geo.Rect

	// SkewProb is the probability that a task's published timestamp carries
	// producer clock skew — the chaos regime of a fleet whose devices stamp
	// events with drifting clocks. A skewed task's Pub shifts by a uniform
	// draw in [−SkewMax, +SkewMax] (clamped into its generation window)
	// while Exp stays anchored to the true publication instant, so the
	// effective validity window the dispatcher sees shrinks or stretches by
	// up to SkewMax seconds. Keep SkewMax < TaskValid or skewed tasks can
	// arrive already expired.
	SkewProb float64
	// SkewMax bounds the skew in seconds (0 disables skew even when
	// SkewProb fires).
	SkewMax float64

	// BreakProb is the probability that a worker's availability window is
	// interrupted by an unplanned break — the "dynamic worker availability
	// windows" of the paper's title (Section IV: windows "can change
	// dynamically due to factors such as breaks, shifts, or unforeseen
	// circumstances"). A worker with a break appears as two availability
	// segments separated by BreakLength seconds of absence; the total
	// available time stays WorkerAvail.
	BreakProb float64
	// BreakLength is the off-duty gap in seconds (default 0 disables gaps
	// even when BreakProb fires).
	BreakLength float64
}

// Yueche returns the configuration matching the paper's Yueche trace.
func Yueche() Config {
	return Config{
		Name: "Yueche", Seed: 1,
		Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
		GridRows: 6, GridCols: 6,
		NumWorkers: 624, NumTasks: 11052,
		Duration: 7200, HistoryDuration: 3600,
		TaskValid: 40, WorkerReach: 1, WorkerAvail: 3600,
		Hotspots: 6, HotspotStd: 0.2, Background: 0.08,
		DependencyPairs: 4, DependencyLag: 20, DependencyProb: 0.85,
		RegimePeriod: 1200,
	}
}

// DiDi returns the configuration matching the paper's DiDi trace.
func DiDi() Config {
	return Config{
		Name: "DiDi", Seed: 2,
		Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
		GridRows: 6, GridCols: 6,
		NumWorkers: 760, NumTasks: 8869,
		Duration: 7200, HistoryDuration: 3600,
		TaskValid: 40, WorkerReach: 1, WorkerAvail: 3600,
		Hotspots: 6, HotspotStd: 0.22, Background: 0.10,
		DependencyPairs: 4, DependencyLag: 22, DependencyProb: 0.85,
		RegimePeriod: 1500,
	}
}

// Scaled returns a copy of c with worker count, task count, the two
// durations and worker availability scaled by f, preserving spatial density
// and the supply/demand ratio. Used to run the full experiment suite at
// laptop scale.
func (c Config) Scaled(f float64) Config {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("workload: scale factor %v out of (0,1]", f))
	}
	c.NumWorkers = max(1, int(float64(c.NumWorkers)*f))
	c.NumTasks = max(1, int(float64(c.NumTasks)*f))
	c.Duration *= f
	c.HistoryDuration *= f
	c.WorkerAvail *= f
	c.RegimePeriod *= f
	return c
}

// IntensityPeak is one Gaussian bump of a custom temporal intensity profile
// (Config.Peaks). Center and Width are fractions of the assignment window
// [0, Duration) — Center 0.5 peaks mid-run, negative Center reaches into the
// history window — so the profile's shape survives Scaled, which stretches
// Duration.
type IntensityPeak struct {
	// Center is the peak instant as a fraction of the assignment window.
	Center float64
	// Width is the Gaussian standard deviation, as a window fraction.
	Width float64
	// Amp is the peak height added on top of Config.IntensityFloor.
	Amp float64
}

// Scenario is a fully generated trace.
type Scenario struct {
	Config Config
	Grid   geo.Grid
	// HotspotCells records the grid cell of each demand hotspot, in
	// generation order. Scenario-atlas invariant checks read it; len equals
	// Config.Hotspots.
	HotspotCells []int
	Workers      []*core.Worker
	// History holds tasks published in [−HistoryDuration, 0): prediction
	// training data, never assigned.
	History []*core.Task
	// Tasks holds the assignment-window stream, published in [0, Duration).
	Tasks  []*core.Task
	T0, T1 float64
}

// SeriesConfig returns the prediction series configuration rooted at the
// start of the history window, so one series spans history and run.
func (s *Scenario) SeriesConfig(k int, deltaT float64) predict.SeriesConfig {
	return predict.SeriesConfig{Grid: s.Grid, K: k, DeltaT: deltaT, T0: -s.Config.HistoryDuration}
}

type hotspot struct {
	center geo.Point
	weight [2]float64 // per-regime weight
	// Demand pulses: the hotspot is "hot" for duty·period seconds out of
	// every period, shifted by phase — the bursty rush pockets that make
	// short-horizon demand prediction non-trivial and valuable.
	period, duty, phase float64
}

// pulse returns the activity multiplier of h at time t: full weight while
// the burst is on, a trickle otherwise.
func (h hotspot) pulse(t float64) float64 {
	x := math.Mod((t-h.phase)/h.period, 1)
	if x < 0 {
		x++
	}
	if x < h.duty {
		return 1
	}
	return 0.02
}

type dependency struct {
	srcCell, dstCell int
	regime           int
}

// Generate builds the scenario deterministically from c.
func Generate(c Config) *Scenario {
	if c.NumTasks <= 0 || c.NumWorkers <= 0 {
		panic("workload: worker and task counts must be positive")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	grid := geo.NewGrid(c.Region, c.GridRows, c.GridCols)
	s := &Scenario{Config: c, Grid: grid, T0: 0, T1: c.Duration}

	// Hotspots with regime-dependent weights and bursty pulses. Each is
	// snapped to the center of a distinct grid cell so its burst saturates
	// one cell instead of straddling corners.
	spots := make([]hotspot, c.Hotspots)
	usedCenters := make(map[int]bool)
	// pickCell draws a candidate hotspot cell: anywhere on the grid, or —
	// when zones constrain placement — inside hotspot i's zone.
	pickCell := func(i int) int {
		if len(c.HotspotZones) == 0 {
			return rng.Intn(grid.Cells())
		}
		z := c.HotspotZones[i%len(c.HotspotZones)]
		return grid.CellOf(c.Region.Clamp(geo.Point{
			X: z.MinX + rng.Float64()*z.Width(),
			Y: z.MinY + rng.Float64()*z.Height(),
		}))
	}
	for i := range spots {
		cell := pickCell(i)
		for tries := 0; usedCenters[cell] && tries < 16; tries++ {
			cell = pickCell(i)
		}
		usedCenters[cell] = true
		s.HotspotCells = append(s.HotspotCells, cell)
		spots[i] = hotspot{
			center: grid.Center(cell),
			weight: [2]float64{0.5 + rng.Float64(), 0.5 + rng.Float64()},
			period: 90 + rng.Float64()*150,
			duty:   0.35 + rng.Float64()*0.2,
			phase:  rng.Float64() * 240,
		}
	}

	// Dependency pairs route demand from hotspot (source) cells into
	// otherwise-quiet sink cells, half per regime: the sink's activity is
	// almost purely lag-driven by its source — the cross-region structure
	// the Demand Dependency Learning module exists to capture.
	hotCells := make(map[int]bool, len(spots))
	for _, h := range spots {
		hotCells[grid.CellOf(h.center)] = true
	}
	var quietCells []int
	for cell := 0; cell < grid.Cells(); cell++ {
		if !hotCells[cell] {
			quietCells = append(quietCells, cell)
		}
	}
	if len(quietCells) == 0 {
		quietCells = []int{0}
	}
	deps := make([]dependency, 0, c.DependencyPairs*2)
	usedSinks := make(map[int]bool)
	for regime := 0; regime < 2; regime++ {
		for i := 0; i < c.DependencyPairs; i++ {
			src := grid.CellOf(spots[rng.Intn(len(spots))].center)
			dst := quietCells[rng.Intn(len(quietCells))]
			for tries := 0; usedSinks[dst] && tries < 8; tries++ {
				dst = quietCells[rng.Intn(len(quietCells))]
			}
			usedSinks[dst] = true
			if src == dst {
				continue
			}
			deps = append(deps, dependency{srcCell: src, dstCell: dst, regime: regime})
		}
	}

	regimeAt := func(t float64) int {
		if c.RegimePeriod <= 0 {
			return 0
		}
		// Shift so history and run share the same regime schedule.
		period := int(math.Floor((t + c.HistoryDuration) / c.RegimePeriod))
		return period % 2
	}

	// Temporal intensity: a base load with two rush peaks across the
	// combined history+run horizon, unless Config.Peaks supplies an
	// explicit profile.
	horizon := c.HistoryDuration + c.Duration
	intensity := func(t float64) float64 {
		x := (t + c.HistoryDuration) / horizon // 0..1
		return 1 + 0.6*math.Sin(2*math.Pi*x) + 0.4*math.Sin(4*math.Pi*x+1.3)
	}
	bound := 2.0 // the legacy profile stays below 2
	if len(c.Peaks) > 0 {
		floor := c.IntensityFloor
		if floor <= 0 {
			floor = 0.15
		}
		bound = floor
		for _, p := range c.Peaks {
			bound += p.Amp
		}
		intensity = func(t float64) float64 {
			x := t / c.Duration
			v := floor
			for _, p := range c.Peaks {
				if p.Width <= 0 {
					continue
				}
				d := (x - p.Center) / p.Width
				v += float64(p.Amp * fmath.Exp(-0.5*d*d))
			}
			return v
		}
	}

	sampleTime := func(from, span float64) float64 {
		// Rejection sampling against the bounded intensity.
		for {
			t := from + rng.Float64()*span
			if rng.Float64()*bound < intensity(t) {
				return t
			}
		}
	}

	sampleLoc := func(t float64) geo.Point {
		if rng.Float64() < c.Background {
			return geo.Point{
				X: c.Region.MinX + rng.Float64()*c.Region.Width(),
				Y: c.Region.MinY + rng.Float64()*c.Region.Height(),
			}
		}
		reg := regimeAt(t)
		total := 0.0
		for _, h := range spots {
			total += h.weight[reg] * h.pulse(t)
		}
		pick := rng.Float64() * total
		chosen := spots[len(spots)-1]
		for _, h := range spots {
			pick -= h.weight[reg] * h.pulse(t)
			if pick <= 0 {
				chosen = h
				break
			}
		}
		p := geo.Point{
			X: chosen.center.X + rng.NormFloat64()*c.HotspotStd,
			Y: chosen.center.Y + rng.NormFloat64()*c.HotspotStd,
		}
		return c.Region.Clamp(p)
	}

	cellPoint := func(cell int) geo.Point {
		rect := grid.CellRect(cell)
		return geo.Point{
			X: rect.MinX + rng.Float64()*rect.Width(),
			Y: rect.MinY + rng.Float64()*rect.Height(),
		}
	}

	// genTasks produces count tasks over [from, from+span), injecting
	// lagged dependents.
	genTasks := func(count int, from, span float64, idBase int) []*core.Task {
		var out []*core.Task
		id := idBase
		for len(out) < count {
			t := sampleTime(from, span)
			loc := sampleLoc(t)
			task := &core.Task{ID: id, Loc: loc, Pub: t, Exp: t + c.TaskValid, Cell: grid.CellOf(loc)}
			if c.SkewProb > 0 && c.SkewMax > 0 && rng.Float64() < c.SkewProb {
				// Producer clock skew: the arrival stamp moves, the true
				// deadline does not. Clamping keeps the stamp inside the
				// generation window so the trace's event ordering and the
				// engine's [T0, T1) clock range stay well-formed.
				pub := t + (rng.Float64()*2-1)*c.SkewMax
				pub = math.Max(from, math.Min(pub, from+span-1e-9))
				task.Pub = pub
			}
			id++
			out = append(out, task)
			if len(out) >= count {
				break
			}
			// Dependency injection: a task in a source cell spawns a
			// dependent task in the sink cell after the lag.
			reg := regimeAt(t)
			for _, d := range deps {
				if d.regime != reg || d.srcCell != task.Cell {
					continue
				}
				if rng.Float64() > c.DependencyProb {
					continue
				}
				dt := t + c.DependencyLag + rng.NormFloat64()*2
				if dt < from || dt >= from+span {
					continue
				}
				loc2 := cellPoint(d.dstCell)
				out = append(out, &core.Task{
					ID: id, Loc: loc2, Pub: dt, Exp: dt + c.TaskValid, Cell: d.dstCell,
				})
				id++
				if len(out) >= count {
					break
				}
			}
		}
		core.SortTasksByPub(out)
		return out
	}

	historyCount := int(float64(c.NumTasks) * c.HistoryDuration / c.Duration)
	if c.HistoryDuration > 0 && historyCount < 1 {
		historyCount = 1
	}
	s.History = genTasks(historyCount, -c.HistoryDuration, c.HistoryDuration, 1_000_000)
	s.Tasks = genTasks(c.NumTasks, 0, c.Duration, 1)

	// Workers: start near demand, windows spread over the run so supply
	// overlaps the whole horizon. With probability BreakProb a worker's
	// window is split by an unplanned break into two segments; the engine
	// sees two availability windows for the same physical courier (two
	// Worker entries with distinct ids), which is exactly how a dynamic
	// window change presents to the assignment component.
	id := 1
	for i := 0; i < c.NumWorkers; i++ {
		on := rng.Float64() * math.Max(1, c.Duration-c.WorkerAvail)
		loc := sampleLoc(on)
		if c.BreakProb > 0 && c.BreakLength > 0 && rng.Float64() < c.BreakProb {
			// Split the window at a random interior point.
			frac := 0.25 + rng.Float64()*0.5
			cut := on + c.WorkerAvail*frac
			first := &core.Worker{ID: id, Loc: loc, Reach: c.WorkerReach, On: on, Off: cut}
			id++
			resume := cut + c.BreakLength
			second := &core.Worker{
				ID: id, Loc: sampleLoc(resume), Reach: c.WorkerReach,
				On: resume, Off: resume + c.WorkerAvail*(1-frac),
			}
			id++
			s.Workers = append(s.Workers, first, second)
			continue
		}
		s.Workers = append(s.Workers, &core.Worker{
			ID: id, Loc: loc, Reach: c.WorkerReach, On: on, Off: on + c.WorkerAvail,
		})
		id++
	}
	core.SortWorkersByOn(s.Workers)
	return s
}
