package dispatch

import (
	"math/rand"
	"testing"
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
