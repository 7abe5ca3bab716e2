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

	p := &SSP{Opts: opts(), Samples: 8}
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

// commit is SSP's choice among the K candidates: each scored by its mean
// value over the scenarios (summed in scenario order, divided by K), the
// lowest-indexed best taken.
func commit(plans []core.Plan, virtualWeight float64) int {
	best, bestScore := 0, math.Inf(-1)
	for j := range plans {
		sum := 0.0
		for s := range plans {
			sum += planValue(plans[j], s, virtualWeight)
		}
		if score := sum / float64(len(plans)); score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// sameAsPerScenario holds p's next Plan of the pool to the oracle's.
func sameAsPerScenario(t *testing.T, p *SSP, ws []*core.Worker, ts []*core.Task, now float64) {
	t.Helper()
	plans, counts := perScenarioSearch(p, ws, ts, now)
	want := plans[commit(plans, p.Opts.WithDefaults().VirtualWeight)]
	samePlans(t, want, checked{p}.Plan(ws, ts, now))
	if c := sspCounts(p); c != counts {
		t.Fatalf("nodes/greedy/bound-trees/skipped %v, per-scenario searches %v", c, counts)
	}
}

// TestSSPSharedPassMatchesPerScenarioSearchAcrossParallelism is the staged
// pass's differential oracle: whatever the scenarios share — gathers, sequence
// sets, trees, searches — the committed plan and the summed counters are those
// of K searches from scratch on K copied pools, under a binding and a loose
// budget, cold and on the scratch a plan of the same pool left warm, for two
// planners planning the pool side by side under sideBySide as two shards'
// planners do: one after the other on the test's goroutine at 1, each on a
// goroutine of its own at 0 where the CPUs allow. The pools: random ones at three scenario counts, the rush-hour crowd robust-ssp plans, and two
// whose trees run past 64 tasks, laid out on two words — a chain of 80 tasks,
// one tree a scenario and no two alike, and the event-spike flash crowd at 5x.
// The last costs seconds a plan under the race detector, which CI runs this
// test with three times over, so one planner plans it, under the binding
// budget only, at 1.
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
			// The oracle plans the K candidates once, and each planner plans
			// the pool twice, the second time on the scratch the first left
			// warm.
			oracle := &SSP{Opts: o, Samples: c.k}
			plans, counts := perScenarioSearch(oracle, c.workers, c.tasks, c.now)
			want := plans[commit(plans, o.WithDefaults().VirtualWeight)]
			for _, p := range []int{1, 0} {
				got := []*SSP{{Opts: o, Samples: c.k}, {Opts: o, Samples: c.k}}
				if c.heavy {
					if p == 0 {
						continue
					}
					got = got[:1]
				}
				for _, pass := range []string{"cold", "warm"} {
					plan := make([]core.Plan, len(got))
					sideBySide(len(got), p, func(i int) {
						plan[i] = checked{got[i]}.Plan(c.workers, c.tasks, c.now)
					})
					for i := range got {
						name := fmt.Sprintf("%s budget %d %s par %d planner %d", c.name, maxNodes, pass, p, i)
						if len(want) != len(plan[i]) {
							t.Fatalf("%s: %d assignments, per-scenario searches %d", name, len(plan[i]), len(want))
						}
						samePlans(t, want, plan[i])
						if n := sspCounts(got[i]); n != counts {
							t.Fatalf("%s: nodes/greedy/bound-trees/skipped %v, per-scenario searches %v", name, n, counts)
						}
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
		p := &SSP{Opts: opts(), Samples: 6}
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
