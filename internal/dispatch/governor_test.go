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

// TestGovernorPropertyFuzz fuzzes random cost sequences against the
// governor's stated contract: tiers stay in range, at most one single-step
// transition per observation, consecutive transitions never closer than
// Dwell observations, promotions only after a full post-transition window,
// transition counters match the trajectory, and an identical rerun produces
// the byte-identical trajectory.
func TestGovernorPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		cfg := GovernorConfig{
			Budget: 1 + 9*rng.Float64(),
			Window: 1 + rng.Intn(12),
			Dwell:  1 + rng.Intn(10),
		}
		tiers := 2 + rng.Intn(3)
		costs := make([]float64, 40+rng.Intn(160))
		for i := range costs {
			// Alternate lulls under the recovery threshold with bursts over
			// budget so both transition directions are exercised.
			if rng.Float64() < 0.5 {
				costs[i] = rng.Float64() * cfg.Budget * recoverFraction
			} else {
				costs[i] = cfg.Budget * (1 + 3*rng.Float64())
			}
		}
		traj := trajectory(cfg, tiers, costs)

		prev, lastTrans := 0, -1
		demotions, promotions := 0, 0
		for k, tier := range traj {
			if tier < 0 || tier >= tiers {
				t.Fatalf("trial %d obs %d: tier %d outside [0, %d)", trial, k, tier, tiers)
			}
			switch delta := tier - prev; {
			case delta == 0:
			case delta == 1, delta == -1:
				if lastTrans >= 0 && k-lastTrans < cfg.Dwell {
					t.Fatalf("trial %d obs %d: transition %d observations after the previous one (dwell %d)",
						trial, k, k-lastTrans, cfg.Dwell)
				}
				if delta == -1 {
					if lastTrans >= 0 && k-lastTrans < cfg.Window {
						t.Fatalf("trial %d obs %d: promotion %d observations after a transition (window %d)",
							trial, k, k-lastTrans, cfg.Window)
					}
					promotions++
				} else {
					demotions++
				}
				lastTrans = k
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

		if rerun := trajectory(cfg, tiers, costs); !equalInts(rerun, traj) {
			t.Fatalf("trial %d: rerun diverged\nfirst:  %v\nsecond: %v", trial, traj, rerun)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGovernorDemotesOnFirstHotEpoch pins the partial-window demotion rule: a
// fresh shard's dwell clock starts satisfied, so the very first over-budget
// epoch demotes — a flash crowd is not granted a full window of blown SLAs.
func TestGovernorDemotesOnFirstHotEpoch(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 1, Window: 16, Dwell: 8}, 1, 3)
	if tier := g.Observe(0, 5); tier != 1 {
		t.Fatalf("tier after first hot epoch = %d, want 1", tier)
	}
	if g.Worst() != 1 {
		t.Fatalf("worst = %d, want 1", g.Worst())
	}
}

// TestGovernorPromotionWaitsFullWindow pins the recovery hysteresis: after a
// demotion, a shard steps back up only once a full window of post-transition
// epochs sits at or below recoverFraction·Budget — never sooner, however
// quiet.
func TestGovernorPromotionWaitsFullWindow(t *testing.T) {
	cfg := GovernorConfig{Budget: 10, Window: 4, Dwell: 2}
	g := NewGovernor(cfg, 1, 2)
	if tier := g.Observe(0, 100); tier != 1 {
		t.Fatalf("tier after burst = %d, want 1", tier)
	}
	for k := 1; k < cfg.Window; k++ {
		if tier := g.Observe(0, 1); tier != 1 {
			t.Fatalf("observation %d: promoted after %d quiet epochs, want a full window of %d", k, k, cfg.Window)
		}
	}
	if tier := g.Observe(0, 1); tier != 0 {
		t.Fatalf("tier after a full quiet window = %d, want 0", tier)
	}
}

// TestGovernorShardsAreIndependent: one shard's burst must not move its
// siblings' tiers — the governor's state is strictly per shard.
func TestGovernorShardsAreIndependent(t *testing.T) {
	g := NewGovernor(GovernorConfig{Budget: 1, Window: 4, Dwell: 2}, 3, 2)
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
	const k = 5
	env := method.Env{
		Opts:    assign.Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}},
		Value:   tvf.NewModel(16, 1),
		Samples: k,
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
	gov := GovernorConfig{Budget: 40, Window: 4, Dwell: 2}
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
