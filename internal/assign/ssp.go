package assign

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/geo"
)

// SSP is the scenario-sampling robust planner: instead of planning against
// one point forecast, it plans one candidate assignment per sampled demand
// future (the scenario-tagged virtual pool produced by
// predict.ScenarioSampler) and commits the candidate whose realized value is
// best across the whole sample set.
//
// Scenario k's planning pool is the real tasks plus the virtual tasks whose
// SampleBits contain bit k (bits == 0 means every scenario). The K pools are
// never copied out and never planned one by one: they go through the search
// planner's stages together (Search.plan), as K views of the one pool handed
// in, and everything two scenarios have in common is done once — the spatial
// index and each worker's candidate gather, Q_w for a worker whose reachable
// set is the same in both, the RTC tree and its search for a dependency
// component whose members' sets all are. Each candidate is nonetheless exactly
// the plan a Search returns on that scenario's pool alone. Candidate j is then
// scored under every scenario k — real tasks at full value, virtual tasks at
// VirtualWeight when scenario k contains them and zero otherwise — and the
// candidate with the best mean over the K scenarios (its expected value)
// is committed. Ties commit the lowest-indexed candidate.
//
// When the pool carries no scenario-tagged virtuals (K = 1, or a sampler-free
// forecast) there is one scenario, the pool itself, and SSP is byte-identical
// to point-forecast planning.
//
// Between calls an SSP holds on to the last instant's pool through its
// planner's scratch — the Separations, the sets and the trees they share, and
// every candidate's choices — and to nothing older: a call overwrites or
// clears all of it. Of the K candidates only the committed one is ever made
// into a plan.
type SSP struct {
	Opts Options
	// Samples is the scenario count K the sampler was configured with
	// (bounds the per-task bitmasks; default 1+the highest bit seen).
	Samples int

	// Per-instant scratch: the planner the scenarios go through. Its counters
	// are the last Plan call's (Search.plan): NodesLastPlan and the completion
	// and budget counters summed across scenarios, a component several
	// scenarios hold counting in each, as it would had each been searched
	// alone; ExpandedLastPlan the calls really made, such a component once;
	// trees the scenarios' forests' trees, summed, and len(results) the
	// distinct ones, built and searched.
	search Search
}

// Name implements Planner.
func (p *SSP) Name() string { return "SSP" }

// Travel implements Planner.
func (p *SSP) Travel() geo.TravelModel { return p.Opts.WithDefaults().WDS.Travel }

// Work implements Planner: Search's, for the one pass the scenarios share.
func (p *SSP) Work() int { return p.search.work }

// Plan implements Planner.
func (p *SSP) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	o := p.Opts.WithDefaults()
	k := p.scenarios(tasks)
	s := &p.search
	s.Opts = o
	s.plan(workers, tasks, now, k)

	// Score candidate j by its mean value over the scenarios, each read
	// straight from the forests' choices (Search.value): only the candidate
	// committed becomes a plan.
	best, bestScore := 0, math.Inf(-1)
	for j := 0; j < k; j++ {
		sum := 0.0
		for sc := 0; sc < k; sc++ {
			sum += s.value(j, sc, o.VirtualWeight)
		}
		if score := sum / float64(k); score > bestScore {
			best, bestScore = j, score
		}
	}
	return s.commit(best)
}

// scenarios returns the scenario count implied by the pool: the configured
// Samples when any virtual task carries scenario bits, 1 otherwise.
func (p *SSP) scenarios(tasks []*core.Task) int {
	maxBit := -1
	for _, t := range tasks {
		if t.SampleBits == 0 {
			continue
		}
		if b := bits.Len64(t.SampleBits) - 1; b > maxBit {
			maxBit = b
		}
	}
	if maxBit < 0 {
		return 1
	}
	k := p.Samples
	if k < maxBit+1 {
		k = maxBit + 1 // never drop a scenario the sampler emitted
	}
	if k > 64 {
		k = 64
	}
	return k
}

// value is the realized value under scenario sc of scenario si's plan of the
// last call (what commit(si) returns): one per real task, virtualWeight per
// virtual task scenario sc contains, zero for virtuals of other scenarios (the
// worker repositions toward demand that never appears there). It reads the
// forest's choices and adds in the plan's order, assignment by assignment and
// task by task, so it is the committed plan's value to the bit without the
// plan being made.
//
//datawa:hotpath
func (s *Search) value(si, sc int, virtualWeight float64) float64 {
	sep := &s.seps[si]
	v := 0.0
	for _, id := range s.forest(si) {
		r := &s.results[id]
		for _, c := range s.out[r.from:r.to] {
			ws := &sep.Sets[c.w]
			for _, pos := range ws.Order(int(c.k)) {
				switch t := sep.Tasks[ws.Index[pos]]; {
				case !t.Virtual:
					v++
				case t.SampleBits == 0 || t.SampleBits&(1<<sc) != 0:
					v += virtualWeight
				}
			}
		}
	}
	return v
}
