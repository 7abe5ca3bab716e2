// Package scenario is the workload atlas: a registry of named, documented
// scenario archetypes built on workload.Config. The paper's evaluation lives
// on two Chengdu traces (Yueche, DiDi); the atlas keeps those as registered
// analogues and adds demand regimes they cannot express — commuter rush
// hours, stadium flash crowds, sparse suburbs, courier grids, twin cities —
// so every subsystem of the pipeline has a workload designed to stress it.
//
// Each archetype couples a base workload.Config with a Scale knob: Scale(f)
// multiplies worker and task counts while leaving the clock, the region and
// every Table III parameter untouched, so the same regime runs at 1x, 5x or
// 20x density. Generation is deterministic given the config seed, which the
// benchmark suite (internal/benchsuite, cmd/datawa-bench -suite) relies on
// for cross-commit comparability.
//
// docs/SCENARIOS.md documents every archetype's real-world regime, its knob
// settings, and the pipeline behavior it is designed to stress.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/workload"
)

// Archetype is one named entry of the atlas.
type Archetype struct {
	// Name is the registry key, kebab-case (e.g. "rush-hour").
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Stress names the pipeline behavior the archetype is designed to
	// exercise (prose; docs/SCENARIOS.md elaborates).
	Stress string
	// Base is the 1x configuration. Base.Name and Base.Seed must be set.
	Base workload.Config
	// Overload, when non-nil, marks a chaos archetype: a workload designed
	// to saturate the dispatcher, carrying the admission-control and
	// governor settings it is meant to run under. The benchmark suite maps
	// the profile onto the live dispatcher (whose governor costs epochs in
	// counted planner work) and gates task conservation and tier
	// recovery on the run; the offline/live fidelity gate skips these
	// cells, since shedding makes the two paths diverge by design.
	Overload *OverloadProfile
	// Check, when non-nil, adds archetype-specific invariants to Validate —
	// e.g. that a flash-flood trace really concentrates most of its tasks
	// inside the burst window.
	Check func(sc *workload.Scenario, f float64) error
}

// OverloadProfile is the plain-data admission and governor configuration a
// chaos archetype runs under (internal/dispatch wires it into its own config
// types; keeping this package free of that dependency).
type OverloadProfile struct {
	// MaxOpenTasks caps the dispatcher's open pool; MaxSubmitsPerEpoch
	// caps per-epoch admissions; DeferSlack is the defer-versus-shed
	// deadline threshold in seconds (0 = the dispatcher default).
	MaxOpenTasks       int
	MaxSubmitsPerEpoch int
	DeferSlack         float64
	// BudgetUnits is the governor's per-shard epoch budget in planner work
	// units (assign.Planner.Work, counted in distance checks), so tier
	// transitions replay byte-identically on every host.
	BudgetUnits float64
	// Window and Dwell override the governor's hysteresis parameters
	// (0 = dispatcher defaults).
	Window, Dwell int
}

// Scale returns the archetype's configuration at density multiplier f > 0:
// worker and task counts scale by f, everything else — durations, region,
// validity windows, hotspot structure — stays fixed, so f directly scales
// the arrival rate the pipeline must sustain. Fractional f (laptop-scale
// smoke runs) and f > 1 (load runs) are both valid.
func (a Archetype) Scale(f float64) workload.Config {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("scenario: scale factor %v out of (0,∞)", f))
	}
	c := a.Base
	c.NumWorkers = max(1, int(float64(c.NumWorkers)*f))
	c.NumTasks = max(1, int(float64(c.NumTasks)*f))
	return c
}

// Generate materializes the archetype's trace at density f.
func (a Archetype) Generate(f float64) *workload.Scenario {
	return workload.Generate(a.Scale(f))
}

// Validate checks the invariants Scale must preserve on a trace generated at
// density f: the hotspot count, hotspot containment in the configured zones,
// worker availability-window lengths inside the break-split bounds, and
// worker/task cardinalities tracking f. The atlas tests run it for every
// registered archetype at several densities.
func (a Archetype) Validate(sc *workload.Scenario, f float64) error {
	c := a.Scale(f)
	if len(sc.HotspotCells) != c.Hotspots {
		return fmt.Errorf("%s: %d hotspot cells, want %d", a.Name, len(sc.HotspotCells), c.Hotspots)
	}
	for i, cell := range sc.HotspotCells {
		if len(c.HotspotZones) == 0 {
			break
		}
		zone := c.HotspotZones[i%len(c.HotspotZones)]
		center := sc.Grid.Center(cell)
		slackX := sc.Grid.CellRect(cell).Width() / 2
		slackY := sc.Grid.CellRect(cell).Height() / 2
		if center.X < zone.MinX-slackX || center.X > zone.MaxX+slackX ||
			center.Y < zone.MinY-slackY || center.Y > zone.MaxY+slackY {
			return fmt.Errorf("%s: hotspot %d cell center %v escapes zone %v", a.Name, i, center, zone)
		}
	}
	if len(sc.Tasks) != c.NumTasks {
		return fmt.Errorf("%s: %d tasks, want %d", a.Name, len(sc.Tasks), c.NumTasks)
	}
	// Break splits turn one worker into two availability segments, so the
	// segment count sits in [NumWorkers, 2·NumWorkers].
	if len(sc.Workers) < c.NumWorkers || len(sc.Workers) > 2*c.NumWorkers {
		return fmt.Errorf("%s: %d worker segments for %d workers", a.Name, len(sc.Workers), c.NumWorkers)
	}
	// Window-length distribution bounds: an unsplit window is exactly
	// WorkerAvail; a break splits it at an interior fraction in
	// [0.25, 0.75], so every segment spans at least a quarter of it.
	lo, hi := 0.25*c.WorkerAvail, c.WorkerAvail*(1+1e-9)
	for _, w := range sc.Workers {
		if win := w.Window(); win < lo-1e-9 || win > hi {
			return fmt.Errorf("%s: worker %d window %.1f s outside [%.1f, %.1f]", a.Name, w.ID, win, lo, c.WorkerAvail)
		}
		if !c.Region.Contains(w.Loc) {
			return fmt.Errorf("%s: worker %d location %v outside region", a.Name, w.ID, w.Loc)
		}
	}
	// Clock skew moves the Pub stamp but never the deadline, so the
	// effective validity stays within ±SkewMax of the configured window.
	validTol := 1e-9
	if c.SkewProb > 0 {
		validTol += c.SkewMax
	}
	for _, s := range sc.Tasks {
		if !c.Region.Contains(s.Loc) {
			return fmt.Errorf("%s: task %d location %v outside region", a.Name, s.ID, s.Loc)
		}
		if math.Abs((s.Exp-s.Pub)-c.TaskValid) > validTol {
			return fmt.Errorf("%s: task %d validity %.2f s, want %.2f ± %.2f", a.Name, s.ID, s.Exp-s.Pub, c.TaskValid, validTol)
		}
	}
	if a.Check != nil {
		if err := a.Check(sc, f); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

var registry = map[string]Archetype{}

// Register adds an archetype to the atlas. It panics on an empty name, a
// duplicate name, or a base config without a seed — all programming errors
// in the registration block, not runtime conditions.
func Register(a Archetype) {
	if a.Name == "" {
		panic("scenario: archetype name must be non-empty")
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate archetype %q", a.Name))
	}
	if a.Base.Seed == 0 {
		panic(fmt.Sprintf("scenario: archetype %q needs a deterministic seed", a.Name))
	}
	registry[a.Name] = a
}

// Get returns the archetype registered under name.
func Get(name string) (Archetype, bool) {
	a, ok := registry[name]
	return a, ok
}

// Names returns every registered archetype name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	//datawa:unordered names are sorted before return
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Registry returns every registered archetype, sorted by name.
func Registry() []Archetype {
	out := make([]Archetype, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// zone is shorthand for a hotspot placement rectangle.
func zone(minX, minY, maxX, maxY float64) geo.Rect {
	return geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}
