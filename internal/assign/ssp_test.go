package assign

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// sspScenario tags a fraction of a random scenario's tasks as scenario-split
// virtuals: each tagged task belongs to a deterministic subset of k sampled
// futures, the rest stay untagged (all scenarios).
func sspScenario(seed int64, k int) ([]*core.Worker, []*core.Task) {
	ws, ts := randomScenario(seed, 30, 90, 7)
	r := rand.New(rand.NewSource(seed * 31))
	for i, task := range ts {
		if i%3 != 0 {
			continue
		}
		task.Virtual = true
		mask := uint64(0)
		for s := 0; s < k; s++ {
			if r.Float64() < 0.5 {
				mask |= 1 << s
			}
		}
		all := uint64(1)<<k - 1
		if mask != 0 && mask != all {
			task.SampleBits = mask
		}
	}
	return ws, ts
}

// TestSSPFastPathMatchesSearch pins the K=1 contract: on a pool without
// scenario bits SSP is byte-identical to the plain search planner, node count
// included.
func TestSSPFastPathMatchesSearch(t *testing.T) {
	ws, ts := randomScenario(11, 40, 120, 8)
	ref := &Search{Opts: opts()}
	want := ref.Plan(ws, ts, 0)

	p := &SSP{Opts: opts(), Samples: 8, CVaRAlpha: 0.5}
	got := p.Plan(ws, ts, 0)
	planIsValid(t, got, 0)
	samePlans(t, want, got)
	if p.NodesLastPlan != ref.NodesLastPlan {
		t.Fatalf("fast-path nodes %d, search %d", p.NodesLastPlan, ref.NodesLastPlan)
	}
}

// TestSSPParallelMatchesSerial is SSP's determinism contract: on a
// scenario-tagged pool the committed plan is byte-identical at every
// parallelism level.
func TestSSPParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{5, 23, 87} {
		ws, ts := sspScenario(seed, 4)

		serialOpts := opts()
		serialOpts.Parallelism = 1
		serial := &SSP{Opts: serialOpts, Samples: 4}
		want := serial.Plan(ws, ts, 0)
		planIsValid(t, want, 0)

		for _, par := range []int{2, 4, 8, 0} {
			o := opts()
			o.Parallelism = par
			p := &SSP{Opts: o, Samples: 4}
			got := p.Plan(ws, ts, 0)
			planIsValid(t, got, 0)
			samePlans(t, want, got)
			if p.NodesLastPlan != serial.NodesLastPlan {
				t.Fatalf("seed %d parallelism %d: nodes %d vs serial %d",
					seed, par, p.NodesLastPlan, serial.NodesLastPlan)
			}
			// A scenario is a whole plan, so the four of them fan out
			// whatever the pool's size: one inner search a goroutine.
			if fan := min(par, 4); par > 0 && len(p.inner) != fan {
				t.Fatalf("seed %d parallelism %d: %d inner searches for %d goroutines", seed, par, len(p.inner), fan)
			}
		}
	}
}

// TestSSPBudgetCountersSumScenarios pins SSP's node, greedy-completion,
// budget-bound-tree and expanded-node counters as the sums of the per-scenario
// searches', under a budget small enough to bind.
func TestSSPBudgetCountersSumScenarios(t *testing.T) {
	const k = 4
	ws, ts := sspScenario(23, k)
	o := opts()
	o.MaxNodes = 30
	p := &SSP{Opts: o, Samples: k}
	p.Plan(ws, ts, 0)

	var want [4]int
	for s := 0; s < k; s++ {
		var pool []*core.Task
		for _, task := range ts {
			if task.SampleBits == 0 || task.SampleBits&(1<<s) != 0 {
				pool = append(pool, task)
			}
		}
		one := &Search{Opts: o}
		one.Plan(ws, pool, 0)
		want[0] += one.NodesLastPlan
		want[1] += one.GreedyCompletionsLastPlan
		want[2] += one.BudgetBoundTreesLastPlan
		want[3] += one.ExpandedLastPlan
	}
	got := [4]int{p.NodesLastPlan, p.GreedyCompletionsLastPlan, p.BudgetBoundTreesLastPlan, p.ExpandedLastPlan}
	if got != want || want[1] == 0 || want[2] == 0 || want[3] >= want[0] {
		t.Fatalf("nodes/greedy/bound-trees/expanded = %v, per-scenario sum %v (the budget must bind and the table answer some nodes)", got, want)
	}
}

// TestSSPRepeatedPlansIdentical guards the scratch reuse: back-to-back plans
// on the same pool must not be perturbed by state left from the previous
// instant.
func TestSSPRepeatedPlansIdentical(t *testing.T) {
	ws, ts := sspScenario(42, 6)
	p := &SSP{Opts: opts(), Samples: 6}
	want := p.Plan(ws, ts, 0)
	for i := 0; i < 3; i++ {
		samePlans(t, want, p.Plan(ws, ts, 0))
	}
}

// TestSSPScenarioCount pins the pool→K inference: untagged pools are one
// scenario, tagged pools take max(Samples, highest bit + 1) clamped to 64.
func TestSSPScenarioCount(t *testing.T) {
	p := &SSP{Samples: 4}
	if k := p.scenarios([]*core.Task{{ID: 1}}); k != 1 {
		t.Errorf("untagged pool: k = %d, want 1", k)
	}
	if k := p.scenarios([]*core.Task{{ID: 1, SampleBits: 1<<6 | 1}}); k != 7 {
		t.Errorf("bit 6 seen: k = %d, want 7", k)
	}
	p.Samples = 100
	if k := p.scenarios([]*core.Task{{ID: 1, SampleBits: 3}}); k != 64 {
		t.Errorf("oversized Samples: k = %d, want 64", k)
	}
}

func TestPlanValuePerScenario(t *testing.T) {
	w := worker(1, 0, 0, 2, 0, 1e5)
	real := task(1, 0.1, 0, 0, 1e5)
	everywhere := vtask(-1, 0.2, 0, 0, 1e5) // SampleBits 0 = all scenarios
	only1 := vtask(-2, 0.3, 0, 0, 1e5)
	only1.SampleBits = 1 << 1
	plan := core.Plan{{Worker: w, Seq: core.Sequence{real, everywhere, only1}}}

	if v := planValue(plan, 0, 0.5); v != 1.5 {
		t.Errorf("scenario 0 value = %v, want 1.5 (real + all-scenario virtual)", v)
	}
	if v := planValue(plan, 1, 0.5); v != 2.0 {
		t.Errorf("scenario 1 value = %v, want 2.0 (all three)", v)
	}
}

// TestCVaRMonotone checks the risk fold: α = 1 (and the unset 0) recover the
// plain mean, and the CVaR is non-decreasing in α — averaging in better
// scenarios can only raise the value.
func TestCVaRMonotone(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 8, 3}
	mean := 23.0 / 6
	if got := cvar(vals, 1, nil); math.Abs(got-mean) > 1e-12 {
		t.Errorf("cvar(α=1) = %v, want mean %v", got, mean)
	}
	if got := cvar(vals, 0, nil); math.Abs(got-mean) > 1e-12 {
		t.Errorf("cvar(α=0, unset) = %v, want mean %v", got, mean)
	}
	prev := math.Inf(-1)
	for _, alpha := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.99} {
		got := cvar(vals, alpha, nil)
		if got < prev-1e-12 {
			t.Fatalf("cvar not monotone: α=%v gave %v after %v", alpha, got, prev)
		}
		prev = got
	}
	// α small enough for a single scenario: the worst value.
	if got := cvar(vals, 0.01, nil); got != 1 {
		t.Errorf("cvar(α→0) = %v, want worst value 1", got)
	}
	// The fold must not disturb the caller's slice.
	if vals[0] != 5 || vals[1] != 1 {
		t.Error("cvar sorted the input slice in place")
	}
}

// TestSSPPrefersRobustPlan builds a pool where the point forecast's virtual
// task appears in only one of four futures while a competing virtual appears
// in three: with sampling on, the committed plan should chase the demand most
// futures agree on.
func TestSSPPrefersRobustPlan(t *testing.T) {
	// One worker, two virtual tasks on opposite sides, each reachable alone
	// (50 s travel, 60 s validity) but not back to back — the plan must pick
	// one.
	w := worker(1, 0, 0, 6, 0, 1e5)
	rare := vtask(-1, 0.5, 0, 0, 60) // scenario 0 only
	rare.SampleBits = 1 << 0
	common := vtask(-2, -0.5, 0, 0, 60) // scenarios 1..3
	common.SampleBits = 0b1110
	tasks := []*core.Task{rare, common}

	p := &SSP{Opts: opts(), Samples: 4}
	plan := p.Plan([]*core.Worker{w}, tasks, 0)
	ids := map[int]bool{}
	for _, a := range plan {
		for _, task := range a.Seq {
			ids[task.ID] = true
		}
	}
	if !ids[-2] || ids[-1] {
		t.Fatalf("SSP committed %v, want the three-future virtual only", ids)
	}
}
