package assign

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/wds"
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
	want := checked{ref}.Plan(ws, ts, 0)

	p := &SSP{Opts: opts(), Samples: 8, CVaRAlpha: 0.5}
	got := checked{p}.Plan(ws, ts, 0)
	samePlans(t, want, got)
	if p.NodesLastPlan != ref.NodesLastPlan {
		t.Fatalf("fast-path nodes %d, search %d", p.NodesLastPlan, ref.NodesLastPlan)
	}
}

// scenarioPool is scenario s of a tagged pool as a pool of its own: what SSP
// plans without ever building it.
func scenarioPool(tasks []*core.Task, s int) []*core.Task {
	var pool []*core.Task
	for _, task := range tasks {
		if task.SampleBits == 0 || task.SampleBits>>uint(s)&1 != 0 {
			pool = append(pool, task)
		}
	}
	return pool
}

// TestSSPParallelMatchesSerial is SSP's determinism contract: on a
// scenario-tagged pool the committed plan and every counter are byte-identical
// at every parallelism level — on small pools, which plan inline whatever the
// setting, and on a crowd past the fan-out grain, where the scenarios' trees
// must really have been searched on more than one goroutine when the CPUs
// allow it.
func TestSSPParallelMatchesSerial(t *testing.T) {
	type pool struct {
		name string
		ws   []*core.Worker
		ts   []*core.Task
	}
	var pools []pool
	for _, seed := range []int64{5, 23, 87} {
		ws, ts := sspScenario(seed, 4)
		pools = append(pools, pool{fmt.Sprintf("seed %d", seed), ws, ts})
	}
	ws, ts := crowdScenario(5)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < len(ts); i += 3 {
		ts[i].Virtual, ts[i].SampleBits = true, 1+uint64(r.Intn(1<<4-2))
	}
	pools = append(pools, pool{"crowd", ws, ts})

	for _, c := range pools {
		serialOpts := opts()
		serialOpts.Parallelism, serialOpts.MaxNodes = 1, 400
		serial := &SSP{Opts: serialOpts, Samples: 4}
		want := checked{serial}.Plan(c.ws, c.ts, 0)
		if serial.DistinctTreesLastPlan >= serial.TreesLastPlan {
			t.Fatalf("%s: %d distinct trees of %d: the scenarios share nothing", c.name, serial.DistinctTreesLastPlan, serial.TreesLastPlan)
		}
		sequences := wds.Separate(c.ws, scenarioPool(c.ts, 0), 0, serialOpts.WDS).Sequences

		for _, p := range []int{2, 4, 8, 0} {
			o := serialOpts
			o.Parallelism = p
			got := &SSP{Opts: o, Samples: 4}
			plan := checked{got}.Plan(c.ws, c.ts, 0)
			samePlans(t, want, plan)
			for _, n := range [][2]int{
				{got.NodesLastPlan, serial.NodesLastPlan}, {got.ExpandedLastPlan, serial.ExpandedLastPlan},
				{got.GreedyCompletionsLastPlan, serial.GreedyCompletionsLastPlan},
				{got.TreesLastPlan, serial.TreesLastPlan}, {got.DistinctTreesLastPlan, serial.DistinctTreesLastPlan},
			} {
				if n[0] != n[1] {
					t.Fatalf("%s parallelism %d: counters %+v, serial %+v", c.name, p, got, serial)
				}
			}
			// Scenario 0's trees are all new to the call: they fan out as a
			// Search's would.
			fan := par.Workers(p, sequences, searchGrain)
			if c.name == "crowd" && p >= 2 && fan < 2 && runtime.GOMAXPROCS(0) >= 2 {
				t.Fatalf("parallelism %d: %d sequences resolve to %d goroutines — the crowd is below the grain", p, sequences, fan)
			}
			if len(got.search.runs) < fan {
				t.Fatalf("%s parallelism %d: %d search runs for %d goroutines", c.name, p, len(got.search.runs), fan)
			}
		}
	}
}

// TestSSPBudgetCountersSumScenarios pins SSP's node, greedy-completion,
// budget-bound-tree and skipped-completion counters as the sums of the
// per-scenario searches', under a budget small enough to bind — a tree several
// scenarios hold counts once in each — and its expanded-node counter as the
// calls the planner really made: the sum over the distinct trees, below the
// per-scenario searches' sum.
func TestSSPBudgetCountersSumScenarios(t *testing.T) {
	const k = 4
	ws, ts := sspScenario(23, k)
	o := opts()
	o.MaxNodes = 30
	p := &SSP{Opts: o, Samples: k}
	checked{p}.Plan(ws, ts, 0)

	var want [4]int
	expanded, trees := 0, 0
	for s := 0; s < k; s++ {
		one := &Search{Opts: o}
		checked{one}.Plan(ws, scenarioPool(ts, s), 0)
		want[0] += one.NodesLastPlan
		want[1] += one.GreedyCompletionsLastPlan
		want[2] += one.BudgetBoundTreesLastPlan
		want[3] += one.SkippedCompletionsLastPlan
		expanded += one.ExpandedLastPlan
		trees += one.trees
	}
	if got := sspCounts(p); got != want || want[1] == 0 || want[2] == 0 || expanded >= want[0] {
		t.Fatalf("nodes/greedy/bound-trees/skipped = %v, per-scenario sum %v, expanded %d (the budget must bind and the table answer some nodes)", got, want, expanded)
	}
	if p.TreesLastPlan != trees || p.DistinctTreesLastPlan >= trees {
		t.Fatalf("%d trees, %d distinct; the per-scenario searches built %d", p.TreesLastPlan, p.DistinctTreesLastPlan, trees)
	}
	// The calls really made are those of the distinct trees: each scenario's
	// search alone expands its own copy of a shared tree again.
	distinct := 0
	for i := range p.search.results {
		distinct += p.search.results[i].expanded
	}
	if p.ExpandedLastPlan != distinct || p.ExpandedLastPlan >= expanded {
		t.Fatalf("expanded %d, distinct trees' sum %d, per-scenario sum %d", p.ExpandedLastPlan, distinct, expanded)
	}
}

// TestSSPRepeatedPlansIdentical guards the scratch reuse: back-to-back plans
// on the same pool must not be perturbed by state left from the previous
// instant.
func TestSSPRepeatedPlansIdentical(t *testing.T) {
	ws, ts := sspScenario(42, 6)
	p := &SSP{Opts: opts(), Samples: 6}
	want := checked{p}.Plan(ws, ts, 0)
	for i := 0; i < 3; i++ {
		samePlans(t, want, checked{p}.Plan(ws, ts, 0))
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

// planValue is the realized value of a candidate plan under scenario s, as
// SSP's docs define it: one per real task, VirtualWeight per virtual task the
// scenario contains, zero for virtuals of other scenarios. The oracles score
// materialized plans with it; SSP scores its candidates unmade
// (Search.value).
func planValue(plan core.Plan, s int, virtualWeight float64) float64 {
	v := 0.0
	for _, a := range plan {
		for _, t := range a.Seq {
			switch {
			case !t.Virtual:
				v++
			case t.SampleBits == 0 || t.SampleBits&(1<<s) != 0:
				v += virtualWeight
			}
		}
	}
	return v
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

// TestSSPScoresAreThePlansValues: SSP scores its K candidates without making
// them (Search.value), and every score is, to the bit, planValue of the plan
// commit makes of that candidate, under every scenario: at the default
// VirtualWeight, 0.35, where the order of the sum shows in its bits, and at 1.
func TestSSPScoresAreThePlansValues(t *testing.T) {
	for _, weight := range []float64{0, 1} {
		for seed := int64(1); seed <= 4; seed++ {
			o := opts()
			o.VirtualWeight = weight
			p := &SSP{Opts: o, Samples: 5}
			ws, ts := sspScenario(seed, 5)
			checked{p}.Plan(ws, ts, 0)
			s, w := &p.search, o.WithDefaults().VirtualWeight
			if len(s.seps) != 5 {
				t.Fatalf("seed %d: %d scenarios planned, want 5", seed, len(s.seps))
			}
			for j := range s.seps {
				plan := s.commit(j)
				for sc := range s.seps {
					got, want := s.value(j, sc, w), planValue(plan, sc, w)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("weight %v, seed %d: candidate %d under scenario %d scores %v, its plan is worth %v", w, seed, j, sc, got, want)
					}
				}
			}
		}
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
	plan := checked{p}.Plan([]*core.Worker{w}, tasks, 0)
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

// sspRushHourPool is the pool BenchmarkSSPPlan plans: the crowd instant of the
// rush-hour archetype at 2.5x, the pool robust-ssp plans at its busiest, with a
// virtual task beside every third real one, present in a fixed random subset
// of the k futures.
func sspRushHourPool(k int) instant {
	a, _ := scenario.Get("rush-hour")
	return tagEveryThird(atlasInstantsOf(a, 2.5)[0], k, 5)
}

// tagEveryThird returns the instant with a scenario-tagged virtual task beside
// every third task of its pool.
func tagEveryThird(in instant, k int, seed int64) instant {
	r := rand.New(rand.NewSource(seed))
	n := len(in.tasks)
	in.tasks = slices.Clone(in.tasks)
	for i := 0; i < n; i += 3 {
		s := in.tasks[i]
		in.tasks = append(in.tasks, &core.Task{ID: -1 - i, Loc: geo.Point{X: s.Loc.X + 0.05, Y: s.Loc.Y},
			Pub: in.now + 30, Exp: in.now + 150, Cell: -1, Virtual: true, SampleBits: 1 + uint64(r.Intn(1<<k-2))})
	}
	return in
}

// perScenarioSearch is the planner SSP replaced, kept here as its oracle: every
// scenario's pool copied out and planned from scratch by a fresh Search. It
// returns the K plans and the node, greedy-completion, budget-bound-tree and
// skipped-completion counts summed over them.
func perScenarioSearch(p *SSP, ws []*core.Worker, ts []*core.Task, now float64) ([]core.Plan, [4]int) {
	k := p.scenarios(ts)
	plans := make([]core.Plan, k)
	var counts [4]int
	for s := range plans {
		pool := ts
		if k > 1 {
			pool = scenarioPool(ts, s)
		}
		one := &Search{Opts: p.Opts}
		plans[s] = checked{one}.Plan(ws, pool, now)
		counts[0] += one.NodesLastPlan
		counts[1] += one.GreedyCompletionsLastPlan
		counts[2] += one.BudgetBoundTreesLastPlan
		counts[3] += one.SkippedCompletionsLastPlan
	}
	return plans, counts
}

// sspCounts is p's share of what perScenarioSearch sums.
func sspCounts(p *SSP) [4]int {
	return [4]int{p.NodesLastPlan, p.GreedyCompletionsLastPlan, p.BudgetBoundTreesLastPlan, p.SkippedCompletionsLastPlan}
}

// commit is SSP's fold over the K candidates: each scored under every
// scenario, the scores folded through CVaR_α, the lowest-indexed best taken.
func commit(plans []core.Plan, alpha, virtualWeight float64) int {
	best, bestScore := 0, math.Inf(-1)
	for j := range plans {
		vals := make([]float64, len(plans))
		for s := range vals {
			vals[s] = planValue(plans[j], s, virtualWeight)
		}
		if score := cvar(vals, alpha, nil); score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// sameAsPerScenario holds p's next Plan of the pool to the oracle's.
func sameAsPerScenario(t *testing.T, p *SSP, ws []*core.Worker, ts []*core.Task, now float64) {
	t.Helper()
	plans, counts := perScenarioSearch(p, ws, ts, now)
	want := plans[commit(plans, p.CVaRAlpha, p.Opts.WithDefaults().VirtualWeight)]
	samePlans(t, want, checked{p}.Plan(ws, ts, now))
	if c := sspCounts(p); c != counts {
		t.Fatalf("nodes/greedy/bound-trees/skipped %v, per-scenario searches %v", c, counts)
	}
}

// TestSSPSharedPassMatchesPerScenarioSearchAcrossParallelism is the staged
// pass's differential oracle: whatever the scenarios share — gathers, sequence
// sets, trees, searches — the committed plan and the summed counters are those
// of K searches from scratch on K copied pools, at every parallelism, under a
// binding and a loose budget, at both ends of the risk knob. The pools: random
// ones at three scenario counts, the rush-hour crowd robust-ssp plans, and two
// whose trees run past 64 tasks, laid out on two words — a chain of 80 tasks,
// one tree a scenario and no two alike, and the event-spike flash crowd at 5x.
// The last costs seconds a plan under the race detector, which CI runs this
// test with three times over, so it is planned under the binding budget only,
// serial and at whatever the CPUs give.
func TestSSPSharedPassMatchesPerScenarioSearchAcrossParallelism(t *testing.T) {
	type pool struct {
		instant
		k     int
		heavy bool
	}
	var pools []pool
	for _, seed := range []int64{5, 23, 42, 87} {
		for _, k := range []int{2, 4, 6} {
			ws, ts := sspScenario(seed, k)
			pools = append(pools, pool{instant{name: fmt.Sprintf("random-%d/k=%d", seed, k), workers: ws, tasks: ts}, k, false})
		}
	}
	pools = append(pools, pool{sspRushHourPool(5), 5, false})
	chain := tagEveryThird(chainInstant(80, 8, 4, 2), 4, 3)
	for _, task := range chain.tasks {
		task.Pub, task.Exp = 0, 1e5
	}
	pools = append(pools, pool{chain, 4, false})
	spike, _ := scenario.Get("event-spike")
	pools = append(pools, pool{tagEveryThird(atlasInstantsOf(spike, 5)[0], 2, 11), 2, true})

	for _, c := range pools {
		for _, maxNodes := range []int{30, 4000} {
			if c.heavy && maxNodes == 4000 {
				continue
			}
			o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: maxNodes}
			if c.now == 0 {
				o = opts() // laid out for the tests' travel model
				o.MaxNodes = maxNodes
			}
			// The fold picks among the same K plans at either α: the oracle
			// plans them once, and each planner plans the second α on the
			// scratch the first left warm.
			oracle := &SSP{Opts: o, Samples: c.k}
			plans, counts := perScenarioSearch(oracle, c.workers, c.tasks, c.now)
			for _, p := range []int{1, 2, 4, 0} {
				if c.heavy && p > 1 {
					continue
				}
				o.Parallelism = p
				got := &SSP{Opts: o, Samples: c.k}
				for _, alpha := range []float64{1, 0.4} {
					name := fmt.Sprintf("%s budget %d α %v parallelism %d", c.name, maxNodes, alpha, p)
					got.CVaRAlpha = alpha
					plan, want := checked{got}.Plan(c.workers, c.tasks, c.now), plans[commit(plans, alpha, o.WithDefaults().VirtualWeight)]
					if len(want) != len(plan) {
						t.Fatalf("%s: %d assignments, per-scenario searches %d", name, len(plan), len(want))
					}
					samePlans(t, want, plan)
					if n := sspCounts(got); n != counts {
						t.Fatalf("%s: nodes/greedy/bound-trees/skipped %v, per-scenario searches %v", name, n, counts)
					}
					if c.heavy {
						break
					}
				}
			}
		}
	}
}

// TestSSPEdgeScenarios covers the scenario shapes the shared pass could get
// wrong at its edges, each against the per-scenario oracle.
func TestSSPEdgeScenarios(t *testing.T) {
	// The cap-after-filter trap: nine tasks in reach of worker 1, the nearest in
	// scenario 0 only. Its eight nearest of the whole pool leave out the ninth,
	// which scenario 1 — without the first — must be offered.
	t.Run("cap-after-filter", func(t *testing.T) {
		ws := []*core.Worker{worker(1, 0, 0, 2, 0, 1e5), worker(2, 1.2, 0, 0.35, 0, 1e5)}
		var ts []*core.Task
		for i := 1; i <= 9; i++ {
			ts = append(ts, task(i, 0.1*float64(i), 0, 0, 1e5))
		}
		ts[0].Virtual, ts[0].SampleBits = true, 1<<0
		p := &SSP{Opts: opts(), Samples: 2}
		sameAsPerScenario(t, p, ws, ts, 0)
		seps := p.search.sep.Scenarios(ws, ts, 0, opts().WDS, 2)
		if got := at(ts, seps[1].Sets[0].Index); len(got) != 8 || got[0].ID != 2 || got[7].ID != 9 {
			t.Fatalf("scenario 1 reaches %v, want tasks 2–9", core.Sequence(got).IDs())
		}
		if got := at(ts, seps[0].Sets[0].Index); len(got) != 8 || got[0].ID != 1 || got[7].ID != 8 {
			t.Fatalf("scenario 0 reaches %v, want tasks 1–8", core.Sequence(got).IDs())
		}
	})

	// All 64 scenarios, the last one's bit in use.
	t.Run("k=64", func(t *testing.T) {
		ws, ts := sspScenario(42, 6)
		for i, task := range ts {
			if task.SampleBits != 0 && i%2 == 0 {
				task.SampleBits = task.SampleBits<<58 | 1<<63
			}
		}
		p := &SSP{Opts: opts(), Samples: 64}
		if k := p.scenarios(ts); k != 64 {
			t.Fatalf("k = %d", k)
		}
		sameAsPerScenario(t, p, ws, ts, 0)
	})

	// Every scenario the same pool: each virtual carries all K bits, which is
	// not the untagged 0. One set of trees, and candidate 0 — the plan of the
	// pool as it is.
	t.Run("identical-scenarios", func(t *testing.T) {
		const k = 5
		ws, ts := sspScenario(87, k)
		for _, task := range ts {
			if task.Virtual {
				task.SampleBits = 1<<k - 1
			}
		}
		p := &SSP{Opts: opts(), Samples: k}
		sameAsPerScenario(t, p, ws, ts, 0)
		one := &Search{Opts: opts()}
		samePlans(t, checked{one}.Plan(ws, ts, 0), checked{p}.Plan(ws, ts, 0))
		if p.DistinctTreesLastPlan != one.trees || p.TreesLastPlan != k*one.trees || p.ExpandedLastPlan != one.ExpandedLastPlan {
			t.Fatalf("%d distinct of %d trees, %d nodes expanded; one search builds %d and expands %d",
				p.DistinctTreesLastPlan, p.TreesLastPlan, p.ExpandedLastPlan, one.trees, one.ExpandedLastPlan)
		}
	})

	// More scenarios configured than the pool's bits name: the trailing ones
	// hold the untagged tasks only.
	t.Run("samples-past-highest-bit", func(t *testing.T) {
		ws, ts := sspScenario(23, 3)
		p := &SSP{Opts: opts(), Samples: 6, CVaRAlpha: 0.5}
		if k := p.scenarios(ts); k != 6 {
			t.Fatalf("k = %d", k)
		}
		sameAsPerScenario(t, p, ws, ts, 0)
	})
}

// TestSSPDropsPreviousPool plans two different pools back to back and checks
// that the planner's scratch then holds no task of the first: every one of
// them is collected. The second pool has fewer scenarios than the first, and in
// the second case a single one, so the Separations it leaves unused must let go
// too.
func TestSSPDropsPreviousPool(t *testing.T) {
	for _, k2 := range []int{2, 1} {
		p := &SSP{Opts: opts(), Samples: 4}
		var freed atomic.Int32
		n := func() int {
			ws, ts := sspScenario(5, 4)
			for _, task := range ts {
				runtime.SetFinalizer(task, func(*core.Task) { freed.Add(1) })
			}
			if plan := (checked{p}).Plan(ws, ts, 0); len(plan) == 0 {
				t.Fatal("an empty plan")
			}
			return len(ts)
		}()
		ws, ts := sspScenario(23, k2)
		if k2 == 1 {
			ws, ts = randomScenario(23, 30, 90, 7)
		}
		p.Samples = k2
		checked{p}.Plan(ws, ts, 0)
		for wait := 0; wait < 100 && int(freed.Load()) < n; wait++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if got := int(freed.Load()); got != n {
			t.Fatalf("second pool of %d scenario(s): %d of the first pool's %d tasks collected", k2, got, n)
		}
		runtime.KeepAlive(p)
	}
}

// at resolves positions into pool, as a reachable set's Index addresses
// Separation.Tasks.
func at[T any](pool []T, index []int32) []T {
	out := make([]T, len(index))
	for k, i := range index {
		out[k] = pool[i]
	}
	return out
}
