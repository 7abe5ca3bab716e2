package dispatch

import (
	"sort"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
)

// CostFunc scores one shard's epoch for the governor. The default scores by
// wall time (wall.Seconds()), which is the operational SLA signal but varies
// across hosts; deterministic harnesses (benchsuite, tests) substitute a
// logical cost — e.g. float64(workers*openTasks), the planner's input size —
// so tier transitions become a pure function of the event stream. workers and
// openTasks are the shard's pool sizes at the planning instant, before the
// epoch's Step ran.
type CostFunc func(shard int, wall time.Duration, workers, openTasks int) float64

// recoverFraction is the promotion threshold as a fraction of Budget: a
// demoted shard steps back up only after a full window of epochs with p95
// cost at or below recoverFraction·Budget. The gap between the demotion
// threshold (Budget) and the promotion threshold is the hysteresis band.
const recoverFraction = 0.5

// GovernorConfig parameterizes the SLA epoch governor. The zero value
// disables it (Budget 0).
type GovernorConfig struct {
	// Budget is the per-shard epoch cost the service is allowed to spend
	// (units of Cost; seconds under the default CostFunc). A shard whose
	// windowed p95 cost exceeds the budget is stepped down the degradation
	// ladder. 0 disables the governor.
	Budget float64
	// Window is how many recent epoch costs feed the per-shard p95
	// (default 16).
	Window int
	// Dwell is the minimum number of epochs between two tier transitions of
	// one shard (default 8) — the hysteresis floor that keeps the ladder
	// from oscillating on a noisy boundary load.
	Dwell int
	// Cost scores an epoch (default: wall-clock seconds).
	Cost CostFunc
}

func (c GovernorConfig) withDefaults() GovernorConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Dwell <= 0 {
		c.Dwell = 8
	}
	if c.Cost == nil {
		c.Cost = func(_ int, wall time.Duration, _, _ int) float64 { return wall.Seconds() }
	}
	return c
}

// Governor is the SLA-aware epoch governor: it watches per-shard epoch cost
// and steps each shard's planner down a degradation ladder (e.g. DTA →
// Greedy → reachability-only Match) when the windowed p95 exceeds the budget,
// recovering hysteretically when load subsides. It is a pure state machine
// over the observed cost sequence — fed the same costs in the same order it
// produces the identical tier trajectory, which the property tests pin down.
//
// Transitions move one tier per observation at most (monotone within an
// epoch) and never closer than Dwell observations apart. Demotion triggers on
// any over-budget p95, even of a partial window, so a flash crowd demotes on
// its first hot epoch; promotion requires a full post-transition window at or
// below recoverFraction·Budget, so recovery waits out the burst's tail.
type Governor struct {
	cfg    GovernorConfig
	tiers  int
	shards []govShard

	demotions  int64
	promotions int64
	worst      int
}

type govShard struct {
	tier int
	// since counts observations since the last transition; it starts at
	// Dwell so a fresh shard may demote on its first hot epoch.
	since int
	ring  []float64
	n     int // valid samples in ring
	next  int
}

// NewGovernor builds a governor for the given shard count and ladder depth
// (tiers ≥ 1; tier 0 is the full planner).
func NewGovernor(cfg GovernorConfig, shards, tiers int) *Governor {
	cfg = cfg.withDefaults()
	if tiers < 1 {
		tiers = 1
	}
	g := &Governor{cfg: cfg, tiers: tiers, shards: make([]govShard, shards)}
	for i := range g.shards {
		g.shards[i] = govShard{since: cfg.Dwell, ring: make([]float64, cfg.Window)}
	}
	return g
}

// Observe feeds one epoch's cost for a shard and returns the shard's tier
// after applying at most one transition.
func (g *Governor) Observe(shard int, cost float64) int {
	s := &g.shards[shard]
	s.ring[s.next] = cost
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.since++
	p95 := p95of(s.ring, s.n)
	switch {
	case s.tier < g.tiers-1 && p95 > g.cfg.Budget && s.since >= g.cfg.Dwell:
		s.tier++
		s.resetWindow()
		g.demotions++
		if s.tier > g.worst {
			g.worst = s.tier
		}
	case s.tier > 0 && s.n == len(s.ring) && p95 <= g.cfg.Budget*recoverFraction && s.since >= g.cfg.Dwell:
		s.tier--
		s.resetWindow()
		g.promotions++
	}
	return s.tier
}

// resetWindow clears the cost window after a transition so the next decision
// is made from post-transition epochs only — the demoted planner's costs, not
// the mixture that triggered the move.
func (s *govShard) resetWindow() {
	s.since = 0
	s.n = 0
	s.next = 0
}

// TierOf returns a shard's current tier (0 = full planner).
func (g *Governor) TierOf(shard int) int { return g.shards[shard].tier }

// Counters returns the lifetime demotion and promotion totals.
func (g *Governor) Counters() (demotions, promotions int64) {
	return g.demotions, g.promotions
}

// Worst returns the deepest tier any shard has reached over the governor's
// lifetime.
func (g *Governor) Worst() int { return g.worst }

// p95of returns the 95th percentile of the first n ring samples: index
// ⌊0.95·(n−1)⌋ of the sorted sample.
func p95of(ring []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), ring[:n]...)
	sort.Float64s(s)
	return s[int(0.95*float64(n-1))]
}

// tieredPlanner exposes a degradation ladder as one assign.Planner: Plan
// dispatches to the ladder entry the governor selected for the shard. Tier
// changes happen under the dispatcher's epoch lock between Steps, so the
// planner the shards see within one epoch is fixed.
type tieredPlanner struct {
	ladder []assign.Planner
	gov    *Governor // nil without a governor: the ladder's head for life
	shard  int
}

// tier is the shard's ladder position: the governor's tier, held at the
// ladder's last entry, and 0 without a governor.
func (p *tieredPlanner) tier() int {
	if p.gov == nil {
		return 0
	}
	return min(p.gov.TierOf(p.shard), len(p.ladder)-1)
}

// Name implements assign.Planner: the active tier's name.
func (p *tieredPlanner) Name() string { return p.ladder[p.tier()].Name() }

// Travel implements assign.Planner: the head rung's model. Every rung plans
// for the one machine, so a ladder's rungs share it.
func (p *tieredPlanner) Travel() geo.TravelModel { return p.ladder[0].Travel() }

// Plan implements assign.Planner.
func (p *tieredPlanner) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	return p.ladder[p.tier()].Plan(workers, tasks, now)
}

// SetParallelism forwards the per-planner budget — the setting divided by
// the epoch's shard fan-out (fanOut) — to every ladder entry that takes one.
func (p *tieredPlanner) SetParallelism(n int) {
	for _, pl := range p.ladder {
		if sp, ok := pl.(interface{ SetParallelism(int) }); ok {
			sp.SetParallelism(n)
		}
	}
}
