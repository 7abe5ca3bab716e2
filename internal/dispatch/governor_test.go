package dispatch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/method"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/tvf"
	"repro/internal/wds"
)

// trajectory replays a cost sequence through a fresh single-shard governor
// and returns the tier after every observation.
func trajectory(cfg GovernorConfig, tiers int, costs []float64) []int {
	g := NewGovernor(cfg, 1, tiers)
	out := make([]int, len(costs))
	for i, c := range costs {
		out[i] = g.Observe(0, c)
	}
	return out
}

// windowP95 is the governor's percentile, computed apart from it: index
// ⌊0.95·(n−1)⌋ of the sorted window.
func windowP95(window []float64) float64 {
	if len(window) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(window))
	return s[int(0.95*float64(len(s)-1))]
}

// TestGovernorPropertyFuzz fuzzes random cost sequences against the
// governor's stated contract. Beside the trajectory the test keeps its own
// record: the costs since the last transition, and per tier the p95 that
// demoted into it (left) and the p95 of its first full window above 0
// (arrived). Against that record: tiers stay in range and move one step an
// observation at most; a demotion happens exactly when the p95 is over
// Budget and a rung is left below; a promotion only after a full
// post-transition window and only when p95 = 0 or p95·left ≤
// Budget·arrived; an idle full window always promotes; the counters match
// the trajectory, and a rerun is byte-identical.
func TestGovernorPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		cfg := GovernorConfig{
			Budget: 1 + 9*rng.Float64(),
			Window: 1 + rng.Intn(12),
		}
		tiers := 2 + rng.Intn(3)
		// Runs of one load level, long enough to fill windows: idle, under
		// budget at various depths, and over it, so both transition
		// directions and both promotion clauses are exercised.
		var costs []float64
		for len(costs) < 200 {
			level := rng.Intn(4)
			for n := 1 + rng.Intn(3*cfg.Window); n > 0; n-- {
				var c float64
				switch level {
				case 1:
					c = cfg.Budget * 0.3 * rng.Float64()
				case 2:
					c = cfg.Budget * (0.3 + 0.7*rng.Float64())
				case 3:
					c = cfg.Budget * (1 + 3*rng.Float64())
				}
				costs = append(costs, c)
			}
		}
		traj := trajectory(cfg, tiers, costs)

		prev := 0
		var since []float64 // costs observed since the last transition
		left, arrived := make([]float64, tiers), make([]float64, tiers)
		demotions, promotions := 0, 0
		for k, tier := range traj {
			since = append(since, costs[k])
			window := since[max(0, len(since)-cfg.Window):]
			full := len(since) >= cfg.Window
			p95 := windowP95(window)
			if full && p95 > 0 && arrived[prev] == 0 {
				arrived[prev] = p95
			}
			if tier < 0 || tier >= tiers {
				t.Fatalf("trial %d obs %d: tier %d outside [0, %d)", trial, k, tier, tiers)
			}
			demote := prev < tiers-1 && p95 > cfg.Budget
			if demote != (tier == prev+1) {
				t.Fatalf("trial %d obs %d: tier %d → %d at p95 %g (budget %g)", trial, k, prev, tier, p95, cfg.Budget)
			}
			switch tier - prev {
			case 0:
				if prev > 0 && full && p95 == 0 {
					t.Fatalf("trial %d obs %d: an idle full window on tier %d did not promote", trial, k, prev)
				}
			case 1:
				demotions++
				left[tier], arrived[tier] = p95, 0
				since = since[:0]
			case -1:
				if !full {
					t.Fatalf("trial %d obs %d: promoted %d observations after a transition (window %d)",
						trial, k, len(since), cfg.Window)
				}
				if p95 != 0 && p95*left[prev] > cfg.Budget*arrived[prev] {
					t.Fatalf("trial %d obs %d: promoted from tier %d at p95 %g, over budget %g · arrived %g / left %g",
						trial, k, prev, p95, cfg.Budget, arrived[prev], left[prev])
				}
				promotions++
				since = since[:0]
			default:
				t.Fatalf("trial %d obs %d: tier jumped %d → %d in one observation", trial, k, prev, tier)
			}
			prev = tier
		}

		g := NewGovernor(cfg, 1, tiers)
		for _, c := range costs {
			g.Observe(0, c)
		}
		if d, p := g.Counters(); int(d) != demotions || int(p) != promotions {
			t.Fatalf("trial %d: counters %d/%d, trajectory shows %d/%d", trial, d, p, demotions, promotions)
		}
		// A drain: Window idle epochs a tier bring any shard back to tier 0.
		for range (tiers - 1) * cfg.Window {
			g.Observe(0, 0)
		}
		if g.TierOf(0) != 0 {
			t.Fatalf("trial %d: tier %d after %d idle epochs", trial, g.TierOf(0), (tiers-1)*cfg.Window)
		}

		if rerun := trajectory(cfg, tiers, costs); !slices.Equal(rerun, traj) {
			t.Fatalf("trial %d: rerun diverged\nfirst:  %v\nsecond: %v", trial, traj, rerun)
		}
	}
}

// TestGovernorDemotesOnFirstHotEpoch pins the partial-window demotion rule:
// the very first over-budget epoch demotes — a flash crowd is not granted a
// full window of blown SLAs.
func TestGovernorDemotesOnFirstHotEpoch(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 1, Window: 16}, 1, 3)
	if tier := g.Observe(0, 5); tier != 1 {
		t.Fatalf("tier after first hot epoch = %d, want 1", tier)
	}
	if g.Worst() != 1 {
		t.Fatalf("worst = %d, want 1", g.Worst())
	}
}

// TestGovernorPromotionWaitsFullWindow pins the recovery rule from both
// sides. However quiet, a shard steps back up only once a full window of
// post-transition epochs is in. Then it steps up only when the rung above,
// predicted as p95 · left / arrived, fits the budget: a window at the cost it
// arrived at does not promote, one at or under Budget·arrived/left does.
func TestGovernorPromotionWaitsFullWindow(t *testing.T) {
	cfg := GovernorConfig{Budget: 10, Window: 4}
	g := NewGovernor(cfg, 1, 2)
	if tier := g.Observe(0, 100); tier != 1 {
		t.Fatalf("tier after burst = %d, want 1", tier)
	}
	for k := 1; k < cfg.Window; k++ {
		if tier := g.Observe(0, 0); tier != 1 {
			t.Fatalf("observation %d: promoted after %d idle epochs, want a full window of %d", k, k, cfg.Window)
		}
	}
	if tier := g.Observe(0, 0); tier != 0 {
		t.Fatalf("tier after a full idle window = %d, want 0", tier)
	}

	// Demoted at p95 40 (left), the shard plans at 8 (arrived): the rung
	// above costs 5× this one, so it fits only once this one is at 10·8/40 = 2.
	g = NewGovernor(cfg, 1, 3)
	if tier := g.Observe(0, 40); tier != 1 {
		t.Fatalf("tier after burst = %d, want 1", tier)
	}
	for k := 0; k < 3*cfg.Window; k++ {
		if tier := g.Observe(0, 8); tier != 1 {
			t.Fatalf("observation %d at the arrival cost: tier %d, want 1", k, tier)
		}
	}
	for k := 0; k < 2*cfg.Window; k++ {
		if tier := g.Observe(0, 2.5); tier != 1 {
			t.Fatalf("observation %d at 2.5, over Budget·arrived/left: tier %d, want 1", k, tier)
		}
	}
	// The window's p95 (its third-smallest of four) reaches 2 on the third
	// such epoch.
	for k := 1; k < 3; k++ {
		if tier := g.Observe(0, 2); tier != 1 {
			t.Fatalf("epoch %d at Budget·arrived/left, p95 still 2.5: tier %d, want 1", k, tier)
		}
	}
	if tier := g.Observe(0, 2); tier != 0 {
		t.Fatalf("a window at Budget·arrived/left: tier %d, want 0", tier)
	}
}

// TestGovernorShardsAreIndependent: one shard's burst must not move its
// siblings' tiers — the governor's state is strictly per shard.
func TestGovernorShardsAreIndependent(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 1, Window: 4}, 3, 2)
	for i := 0; i < 10; i++ {
		g.Observe(1, 50)
		g.Observe(0, 0.1)
		g.Observe(2, 0.1)
	}
	if g.TierOf(0) != 0 || g.TierOf(1) != 1 || g.TierOf(2) != 0 {
		t.Fatalf("tiers = %d/%d/%d, want 0/1/0", g.TierOf(0), g.TierOf(1), g.TierOf(2))
	}
}

// crowdInstant is the planning pool of an atlas archetype at the given density
// at its busiest time on a 2 s grid (most open tasks, the earliest of a tie):
// every worker on shift then and every task published and unexpired.
func crowdInstant(a scenario.Archetype, scale float64) (workers []*core.Worker, tasks []*core.Task, now float64) {
	sc := a.Generate(scale)
	busiest := -1
	for t := sc.T0; t < sc.T1; t += 2 {
		open := 0
		for _, s := range sc.Tasks {
			if s.Pub <= t && s.Exp > t {
				open++
			}
		}
		if open > busiest {
			busiest, now = open, t
		}
	}
	for _, w := range sc.Workers {
		if w.Available(now) {
			workers = append(workers, w)
		}
	}
	for _, s := range sc.Tasks {
		if s.Pub <= now && s.Exp > now {
			tasks = append(tasks, s)
		}
	}
	return workers, tasks, now
}

// withFutures returns the pool with a virtual task beside every third task,
// each in a fixed random subset of k sampled futures: the scenario-tagged
// pool SSP plans, as a predict.ScenarioSampler would hand it over.
func withFutures(tasks []*core.Task, now float64, k int) []*core.Task {
	r := rand.New(rand.NewSource(5))
	out := slices.Clone(tasks)
	for i := 0; i < len(tasks); i += 3 {
		s := tasks[i]
		out = append(out, &core.Task{ID: -1 - i, Loc: geo.Point{X: s.Loc.X + 0.05, Y: s.Loc.Y},
			Pub: now + 30, Exp: now + 150, Cell: -1, Virtual: true, SampleBits: 1 + uint64(r.Intn(1<<k-2))})
	}
	return out
}

// TestGovernorCostFallsOnDemotion holds the governor's cost to the one
// property it exists for: demoting a shard lowers it. On the crowd instant of
// every atlas archetype at 1x and 5x, every ladder of method.Rows plans the
// same pool rung by rung, and each rung's Work must be strictly below the one
// above it. SSP's pool carries scenario-tagged virtual tasks (K = 5): without
// them SSP plans as Search does, and its first demotion would shed nothing.
// DATA-WA's value model is untrained: the walk it guides never backtracks,
// whatever the weights pick.
func TestGovernorCostFallsOnDemotion(t *testing.T) {
	const k = predict.DefaultSamples
	env := method.Env{
		Opts:  assign.Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}},
		Value: tvf.NewModel(16, 1),
	}
	for _, a := range scenario.Registry() {
		for _, scale := range []float64{1, 5} {
			workers, tasks, now := crowdInstant(a, scale)
			for _, row := range method.Rows {
				pool := tasks
				if row.Name == method.SSP {
					pool = withFutures(tasks, now, k)
				}
				ladder := row.Ladder(env)
				work := make([]int, len(ladder))
				for i, p := range ladder {
					checked{p}.Plan(workers, pool, now)
					work[i] = p.Work()
				}
				t.Logf("%s %gx %s (%d workers, %d tasks): %v", a.Name, scale, row.Name, len(workers), len(pool), work)
				for i := 1; i < len(ladder); i++ {
					if work[i] >= work[i-1] {
						t.Errorf("%s %gx %s: %s works %d, not below %s's %d",
							a.Name, scale, row.Name, ladder[i].Name(), work[i], ladder[i-1].Name(), work[i-1])
					}
				}
			}
		}
	}
}

// TestGovernorScoresPlanWork: a shard's epoch costs the governor the planner
// work its Step added and nothing else. The step spans' work= sum to each
// shard's Stats.PlanWork, and fed to a fresh Governor in epoch order they
// retrace the dispatcher's tiers — demotions included — epoch by epoch.
func TestGovernorScoresPlanWork(t *testing.T) {
	sc := testScenario(t)
	gov := GovernorConfig{Budget: 40, Window: 4}
	d := New(Config{
		Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0,
		NewLadder: func(shard int) []assign.Planner {
			o := assign.Options{WDS: wds.Options{Travel: travel}}
			return []assign.Planner{checked{&assign.Search{Opts: o}}, checked{&assign.Greedy{Opts: o}}, checked{&assign.Match{Opts: o}}}
		},
		Governor: gov,
		Obs:      ObsConfig{Spans: 1 << 14},
	})
	LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
	m := d.Snapshot()
	if m.TierDemotions == 0 {
		t.Fatalf("no shard demoted at budget %g: the test exercises nothing", gov.Budget)
	}
	replay := NewGovernor(gov, 2, 3)
	sums := make([]int64, 2)
	spans := d.SpanTrace(0)
	if len(spans) != m.Epochs {
		t.Fatalf("%d epochs retained, want all %d", len(spans), m.Epochs)
	}
	for _, e := range spans {
		for _, sp := range e.Spans {
			if sp.Track == 0 {
				continue
			}
			var workers, open, tier int
			var work int64
			if _, err := fmt.Sscanf(sp.Detail, "workers=%d open=%d work=%d tier=%d", &workers, &open, &work, &tier); err != nil {
				t.Fatalf("epoch %d: shard span detail %q: %v", e.Epoch, sp.Detail, err)
			}
			shard := sp.Track - 1
			if want := replay.TierOf(shard); tier != want {
				t.Fatalf("epoch %d shard %d: planned at tier %d, the replayed governor says %d", e.Epoch, shard, tier, want)
			}
			replay.Observe(shard, float64(work))
			sums[shard] += work
		}
	}
	for _, s := range m.Shards {
		if sums[s.Shard] != s.Stats.PlanWork {
			t.Errorf("shard %d: step spans add up to %d work, its Stats.PlanWork is %d", s.Shard, sums[s.Shard], s.Stats.PlanWork)
		}
	}
	t.Logf("%d epochs, %d↓ %d↑, plan work %d and %d", m.Epochs, m.TierDemotions, m.TierPromotions, sums[0], sums[1])
	if dem, pro := replay.Counters(); dem != m.TierDemotions || pro != m.TierPromotions {
		t.Errorf("replayed governor moved %d↓ %d↑, the dispatcher's %d↓ %d↑", dem, pro, m.TierDemotions, m.TierPromotions)
	}
}
