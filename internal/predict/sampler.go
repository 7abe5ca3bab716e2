package predict

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/tensor"
)

// sampledIDBase is where sampled-only virtual-task ids start, counting down:
// −2⁴⁰ where int has 64 bits, −2²⁴ where it has 32. Point-forecast virtuals
// take small negative ids from the wrapped forecaster's counter; starting the
// sampled counter this far below keeps the two ranges disjoint for any
// realistic run length, so a task's id alone still identifies which
// materialization path produced it.
const sampledIDBase = -(1 << (bits.UintSize/2 + 8))

// DefaultSamples is the number of demand scenarios a sampled forecast draws
// when the caller does not choose, and the one SSP runs at (internal/method
// hands it to both the sampler and the planner): the point forecast plus four
// Bernoulli draws. Tuned on the bursty archetypes at 5x density, where K=5 is the
// smallest sample set whose live assignment rate beats the point-forecast
// planner on both event-spike and rush-hour (docs/PLANNERS.md) — fewer
// draws under-represent sub-threshold demand mass there, while larger K
// pays linearly in planning cost for no further rate gain.
const DefaultSamples = 5

// ScenarioSampler turns a point forecaster into a scenario-sampling demand
// source: at each forecast instant it draws K demand futures from the
// model's predictive distribution and returns the union of their virtual
// tasks, tagging each task with the set of scenarios that contain it
// (core.Task.SampleBits).
//
// Scenario 0 is always the thresholded point forecast — exactly the task set
// (and ids) the wrapped Forecaster would return — so K=1 degenerates to
// point-forecast planning byte for byte. Scenarios 1..K-1 are independent
// Bernoulli draws per (cell, interval) at the model's predicted probability:
// a pair the point forecast discards at p=0.6 still appears in roughly 60% of
// scenarios, which is precisely the demand mass point forecasts mislead on.
//
// Tasks present in every scenario keep SampleBits == 0 (the "all scenarios"
// encoding shared with real tasks), so planners unaware of sampling — and
// the SSP planner's fast path — see a plain point forecast. Sampled-only
// tasks carry the scenario bitmask and ids descending from sampledIDBase.
//
// Each draw reseeds one generator with a seed derived from (Seed, scenario
// index, forecast instant) — the stream rand.New(rand.NewSource(seed)) would
// give, without a fresh source per draw — so the sample set is a pure
// function of configuration and history: byte-identical across runs,
// machines, and every GOMAXPROCS. Virtuals must be called with a
// non-decreasing clock (it is: both the stream machine and the dispatcher
// forecast at cadence under their epoch serialization).
type ScenarioSampler struct {
	F *Forecaster
	// Samples is the number of scenarios K drawn per forecast instant
	// (default DefaultSamples; 1 = the point forecast alone).
	Samples int
	// Seed anchors the per-(scenario, instant) sampling streams.
	Seed int64

	nextSampledID int
	rng           *rand.Rand // reseeded for every draw
	// drawn is Virtuals' scratch: per (cell, interval), cell-major, the mask
	// of the sampling scenarios that drew the pair.
	drawn []uint64
}

// NewScenarioSampler wraps a point forecaster. samples ≤ 0 selects
// DefaultSamples.
func NewScenarioSampler(f *Forecaster, samples int, seed int64) *ScenarioSampler {
	if samples <= 0 {
		samples = DefaultSamples
	}
	return &ScenarioSampler{F: f, Samples: samples, Seed: seed, nextSampledID: sampledIDBase}
}

// Virtuals implements stream.Forecaster: the union of K sampled demand
// futures, scenario-tagged via SampleBits.
func (sc *ScenarioSampler) Virtuals(published []*core.Task, now float64) []*core.Task {
	probs, intervalStart, ok := sc.F.forecast(published, now)
	if !ok {
		return nil
	}
	defer tensor.Recycle(probs)
	// Scenario 0: the point forecast, on the wrapped forecaster's id counter
	// so the K=1 output is indistinguishable from an unsampled forecaster.
	out := VirtualTasks(probs, sc.F.Cfg, intervalStart, sc.F.Threshold, sc.F.ValidTime, sc.F.nextID)
	sc.F.nextID -= len(out)
	k := sc.Samples
	if k <= 0 {
		k = DefaultSamples
	}
	if k > 64 {
		k = 64 // SampleBits is a uint64 bitmask
	}
	if k == 1 {
		return out
	}

	// Draw scenarios 1..K-1. drawn[cell·cols + interval] accumulates the mask
	// of sampling scenarios that materialized the pair; membership of
	// scenario 0 is decided by the threshold, exactly as above.
	cols := probs.Cols
	n := probs.Rows * cols
	sc.drawn = slices.Grow(sc.drawn[:0], n)[:n]
	drawn := sc.drawn
	clear(drawn)
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(0))
	}
	rng := sc.rng
	for s := 1; s < k; s++ {
		rng.Seed(sampleSeed(sc.Seed, s, intervalStart))
		// Cell-major over the dense matrix: one Float64 per (cell, interval)
		// in a fixed order, so the stream consumed is independent of which
		// pairs fire.
		for cell := 0; cell < probs.Rows; cell++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < probs.At(cell, j) {
					drawn[cell*cols+j] |= 1 << s
				}
			}
		}
	}

	// Fold the draws into the union. Pairs the point forecast materialized
	// stay on their scenario-0 task: if every sampling scenario also drew the
	// pair the mask would be all-ones — semantically "all scenarios", which
	// SampleBits == 0 already encodes, so the task is left untagged and the
	// degenerate no-disagreement forecast stays byte-identical to the point
	// forecast. Otherwise the task carries bit 0 plus the drawing scenarios.
	all := uint64(1)<<k - 1
	for _, v := range out {
		key := v.Cell*cols + vIndex(v, intervalStart, sc.F.Cfg.DeltaT)
		mask := 1 | drawn[key]
		drawn[key] = 0
		if mask != all {
			v.SampleBits = mask
		}
	}
	// Sampled-only pairs become fresh tasks in deterministic (cell, interval)
	// order on the sampled id counter.
	for cell := 0; cell < probs.Rows; cell++ {
		for j := 0; j < cols; j++ {
			mask := drawn[cell*cols+j]
			if mask == 0 {
				continue
			}
			pub := intervalStart + float64(float64(j)*sc.F.Cfg.DeltaT)
			out = append(out, &core.Task{
				ID:         sc.nextSampledID,
				Loc:        sc.F.Cfg.Grid.Center(cell),
				Pub:        pub,
				Exp:        pub + sc.F.ValidTime,
				Virtual:    true,
				Cell:       cell,
				SampleBits: mask,
			})
			sc.nextSampledID--
		}
	}
	return out
}

// vIndex recovers a point-forecast task's interval index from its
// publication time (the inverse of VirtualTasks' pub computation).
func vIndex(v *core.Task, intervalStart, deltaT float64) int {
	return int((v.Pub-intervalStart)/deltaT + 0.5)
}

// sampleSeed derives the per-(scenario, instant) stream seed with a
// splitmix64 finalizer, so adjacent scenarios and instants land on
// uncorrelated streams.
func sampleSeed(seed int64, scenario int, intervalStart float64) int64 {
	x := uint64(seed) ^ uint64(scenario)*0x9e3779b97f4a7c15 ^ math.Float64bits(intervalStart)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Span implements stream.Forecaster.
func (sc *ScenarioSampler) Span() float64 { return sc.F.Span() }

// HistorySpan implements stream.Forecaster: sampling reads the same
// model window the point forecast does.
func (sc *ScenarioSampler) HistorySpan() float64 { return sc.F.HistorySpan() }
