package scenario

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/workload"
)

// The atlas. Base cardinalities are laptop-sized (a 1x suite cell runs in
// seconds); the Scale knob takes every archetype to 5x/20x density for load
// runs. Seeds are fixed per archetype so traces are reproducible across
// commits; docs/SCENARIOS.md documents each regime in depth.
func init() {
	Register(Archetype{
		Name:    "yueche",
		Summary: "Yueche analogue (Table II): drifting hotspots, two-rush intensity",
		Stress:  "the paper's baseline regime; sanity anchor for every method",
		Base:    workload.Yueche().Scaled(0.05),
	})
	Register(Archetype{
		Name:    "didi",
		Summary: "DiDi analogue (Table II): denser evening-window Chengdu trace",
		Stress:  "baseline regime at a higher task-to-worker ratio",
		Base:    workload.DiDi().Scaled(0.05),
	})
	Register(Archetype{
		Name:    "rush-hour",
		Summary: "sharp bimodal commuter peaks with corridor dependencies",
		Stress:  "bursty replanning load and lagged cross-region demand learning",
		Base: workload.Config{
			Name: "rush-hour", Seed: 11,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridRows: 6, GridCols: 6,
			NumWorkers: 120, NumTasks: 850,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 40, WorkerReach: 1, WorkerAvail: 500,
			Hotspots: 6, HotspotStd: 0.18, Background: 0.06,
			DependencyPairs: 6, DependencyLag: 30, DependencyProb: 0.9,
			RegimePeriod: 600,
			// Two sharp commuter peaks at 22% and 78% of the window over a
			// low off-peak floor.
			Peaks: []workload.IntensityPeak{
				{Center: 0.22, Width: 0.07, Amp: 3},
				{Center: 0.78, Width: 0.07, Amp: 3},
			},
			IntensityFloor: 0.2,
		},
	})
	Register(Archetype{
		Name:    "event-spike",
		Summary: "stadium flash crowd: one extreme peak, post-event dispersal",
		Stress:  "queue backlog absorption and short-horizon demand prediction",
		Base: workload.Config{
			Name: "event-spike", Seed: 12,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridRows: 6, GridCols: 6,
			NumWorkers: 110, NumTasks: 750,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 45, WorkerReach: 1, WorkerAvail: 600,
			// Two tight hotspots — the stadium gates — and dispersal
			// dependencies that carry demand outward after the final whistle.
			Hotspots: 2, HotspotStd: 0.1, Background: 0.08,
			DependencyPairs: 6, DependencyLag: 60, DependencyProb: 0.9,
			RegimePeriod: 0,
			Peaks: []workload.IntensityPeak{
				{Center: 0.55, Width: 0.035, Amp: 7},
			},
			IntensityFloor: 0.08,
		},
	})
	Register(Archetype{
		Name:    "sparse-suburb",
		Summary: "low density, long reachable distances, wide availability windows",
		Stress:  "spatial-index sparsity and long-haul travel-time feasibility",
		Base: workload.Config{
			Name: "sparse-suburb", Seed: 13,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 12},
			GridRows: 6, GridCols: 6,
			NumWorkers: 50, NumTasks: 280,
			Duration: 1500, HistoryDuration: 600,
			TaskValid: 150, WorkerReach: 3.5, WorkerAvail: 1200,
			Hotspots: 3, HotspotStd: 0.9, Background: 0.4,
			DependencyPairs: 1, DependencyLag: 45, DependencyProb: 0.7,
			RegimePeriod: 600,
		},
	})
	Register(Archetype{
		Name:    "courier-grid",
		Summary: "food-delivery grid: many short tasks, short windows, worker churn",
		Stress:  "per-epoch admission/expiry turnover and open-pool bookkeeping",
		Base: workload.Config{
			Name: "courier-grid", Seed: 14,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3},
			GridRows: 6, GridCols: 6,
			NumWorkers: 170, NumTasks: 1400,
			Duration: 900, HistoryDuration: 450,
			// Short validity, short shifts, frequent breaks: the population
			// the dispatcher sees churns continuously.
			TaskValid: 25, WorkerReach: 0.5, WorkerAvail: 150,
			Hotspots: 8, HotspotStd: 0.12, Background: 0.12,
			DependencyPairs: 3, DependencyLag: 20, DependencyProb: 0.8,
			RegimePeriod: 300,
			BreakProb:    0.35, BreakLength: 45,
		},
	})
	Register(Archetype{
		Name:    "multi-city",
		Summary: "two disjoint hotspot clusters separated by an empty corridor",
		Stress:  "dispatch sharding: cross-shard routing stays cold, shards balance",
		Base: workload.Config{
			Name: "multi-city", Seed: 15,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 4},
			GridRows: 4, GridCols: 10,
			NumWorkers: 140, NumTasks: 900,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 40, WorkerReach: 1, WorkerAvail: 600,
			Hotspots: 6, HotspotStd: 0.2, Background: 0.04,
			DependencyPairs: 4, DependencyLag: 30, DependencyProb: 0.85,
			RegimePeriod: 400,
			// Three hotspots per city; the 2 km corridor between the zones
			// stays empty, so a grid-sharded dispatcher sees two nearly
			// independent sub-populations.
			HotspotZones: []geo.Rect{
				zone(0, 0, 4, 4),
				zone(6, 0, 10, 4),
			},
		},
	})

	// --- Chaos archetypes (Overload != nil) ---------------------------------
	// Workloads built to saturate the dispatcher, each carrying the admission
	// and governor settings it is meant to run under. The benchmark suite
	// maps the profile onto the live path and gates task conservation and
	// tier recovery; the offline/live fidelity gate skips these cells.
	//
	// Each BudgetUnits sits above the Greedy rung's busiest epoch at 1x and
	// below it at 5x, measured per shard on two shards without a governor:
	// a 1x Greedy cell never demotes and a 5x one does, while Search and SSP,
	// which do 3–42× and 9–125× Greedy's work on an atlas crowd instant,
	// demote at both densities.

	Register(Archetype{
		Name:    "flash-flood",
		Summary: "50x flash crowd: event-spike escalated far beyond the epoch budget",
		Stress:  "admission shedding, governor demotion under burst, hysteretic recovery",
		Base: workload.Config{
			Name: "flash-flood", Seed: 16,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridRows: 6, GridCols: 6,
			NumWorkers: 110, NumTasks: 1000,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 30, WorkerReach: 1, WorkerAvail: 600,
			Hotspots: 2, HotspotStd: 0.1, Background: 0.1,
			DependencyPairs: 4, DependencyLag: 30, DependencyProb: 0.85,
			RegimePeriod: 0,
			// One needle peak 50x over the floor: (0.05+2.45)/0.05 = 50.
			// Roughly 70% of the trace lands inside ±3 widths of the peak.
			Peaks: []workload.IntensityPeak{
				{Center: 0.55, Width: 0.02, Amp: 2.45},
			},
			IntensityFloor: 0.05,
		},
		Overload: &OverloadProfile{
			// The burst drives the uncapped pool past 200 open tasks
			// (off-burst steady state sits near 30), so the cap binds only
			// during the flood and the flood must shed: with two thirds of
			// the 30 s validity as the defer threshold, overflow that cannot
			// be admitted quickly is dropped rather than churned through the
			// requeue loop until it expires inside the pool.
			// Greedy's busiest epoch: 391 work units at 1x, 10,646 at 5x.
			MaxOpenTasks: 120,
			DeferSlack:   20,
			BudgetUnits:  2500,
			Window:       8,
			Dwell:        4,
		},
		Check: checkBurstFraction(0.55, 0.02, 0.6),
	})
	Register(Archetype{
		Name:    "stalled-shard",
		Summary: "all demand pinned to one shard band; the rest of the region idles",
		Stress:  "per-shard governor isolation: one shard demotes, its siblings stay at full tier",
		Base: workload.Config{
			Name: "stalled-shard", Seed: 17,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridRows: 6, GridCols: 6,
			NumWorkers: 100, NumTasks: 2000,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 25, WorkerReach: 1, WorkerAvail: 600,
			Hotspots: 3, HotspotStd: 0.12, Background: 0.05,
			DependencyPairs: 0, DependencyLag: 30, DependencyProb: 0,
			RegimePeriod: 0,
			Peaks: []workload.IntensityPeak{
				{Center: 0.35, Width: 0.1, Amp: 1.2},
				{Center: 0.7, Width: 0.1, Amp: 1.2},
			},
			IntensityFloor: 0.25,
			// Every hotspot sits in the top row band, so a row-major banded
			// shard map concentrates nearly the whole load on one shard.
			HotspotZones: []geo.Rect{zone(0, 3.4, 4, 4)},
		},
		Overload: &OverloadProfile{
			// The hot band's arrival rate outruns the workers reachable from
			// it, so its open pool backs up against the cap while the idle
			// bands never come near it: the same profile binds on one shard
			// and is invisible on its siblings. Greedy's busiest epoch: 327
			// work units at 1x, 3,347 at 5x; the idle bands' busiest, under
			// any method and density, 407 (SSP at 5x).
			MaxOpenTasks: 24,
			BudgetUnits:  2000,
			Window:       8,
			Dwell:        4,
		},
		Check: checkZoneFraction(zone(0, 3, 4, 4), 0.75),
	})
	Register(Archetype{
		Name:    "clock-skew",
		Summary: "producer clock skew: arrival stamps drift up to ±20 s off the true deadline",
		Stress:  "deadline-aware shed/defer decisions on disordered, shortened validity windows",
		Base: workload.Config{
			Name: "clock-skew", Seed: 18,
			Region:   geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridRows: 6, GridCols: 6,
			NumWorkers: 100, NumTasks: 700,
			Duration: 1200, HistoryDuration: 600,
			TaskValid: 45, WorkerReach: 1, WorkerAvail: 600,
			Hotspots: 4, HotspotStd: 0.18, Background: 0.1,
			DependencyPairs: 2, DependencyLag: 25, DependencyProb: 0.8,
			RegimePeriod: 600,
			Peaks: []workload.IntensityPeak{
				{Center: 0.5, Width: 0.1, Amp: 2},
			},
			IntensityFloor: 0.3,
			SkewProb:       0.5, SkewMax: 20,
		},
		Overload: &OverloadProfile{
			// Both ingest faces bind here: the submit cap sits under the
			// rush's per-epoch arrival burst (deferring the overflow) and the
			// pool cap under the rush's open peak (displacing by deadline —
			// which skewed stamps make genuinely disordered). Greedy's
			// busiest epoch: 273 work units at 1x, 2,302 at 5x.
			MaxOpenTasks:       32,
			MaxSubmitsPerEpoch: 6,
			BudgetUnits:        800,
			Window:             8,
			Dwell:              4,
		},
		Check: checkSkewApplied(0.2),
	})
}

// checkBurstFraction asserts that at least minFrac of the trace's tasks were
// published within ±3 widths of the configured peak — the property that makes
// a flash-crowd archetype a flash crowd at every density.
func checkBurstFraction(center, width, minFrac float64) func(*workload.Scenario, float64) error {
	return func(sc *workload.Scenario, _ float64) error {
		lo := (center - 3*width) * sc.Config.Duration
		hi := (center + 3*width) * sc.Config.Duration
		in := 0
		for _, s := range sc.Tasks {
			if s.Pub >= lo && s.Pub <= hi {
				in++
			}
		}
		if frac := float64(in) / float64(len(sc.Tasks)); frac < minFrac {
			return fmt.Errorf("burst fraction %.2f below %.2f (want the flood inside [%.0f, %.0f] s)", frac, minFrac, lo, hi)
		}
		return nil
	}
}

// checkZoneFraction asserts that at least minFrac of the trace's tasks lie
// inside the given rectangle — the stalled-shard guarantee that one shard
// band really owns the load.
func checkZoneFraction(z geo.Rect, minFrac float64) func(*workload.Scenario, float64) error {
	return func(sc *workload.Scenario, _ float64) error {
		in := 0
		for _, s := range sc.Tasks {
			if z.Contains(s.Loc) {
				in++
			}
		}
		if frac := float64(in) / float64(len(sc.Tasks)); frac < minFrac {
			return fmt.Errorf("zone fraction %.2f below %.2f (demand escaped the stalled band %v)", frac, minFrac, z)
		}
		return nil
	}
}

// checkSkewApplied asserts that at least minFrac of the trace's tasks carry a
// skewed validity window (|validity − TaskValid| > 1 s) and none is negative.
func checkSkewApplied(minFrac float64) func(*workload.Scenario, float64) error {
	return func(sc *workload.Scenario, _ float64) error {
		skewed := 0
		for _, s := range sc.Tasks {
			v := s.Exp - s.Pub
			if v <= 0 {
				return fmt.Errorf("task %d has non-positive validity %.2f s", s.ID, v)
			}
			if math.Abs(v-sc.Config.TaskValid) > 1 {
				skewed++
			}
		}
		if frac := float64(skewed) / float64(len(sc.Tasks)); frac < minFrac {
			return fmt.Errorf("skewed fraction %.2f below %.2f", frac, minFrac)
		}
		return nil
	}
}
