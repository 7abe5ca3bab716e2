// Package stream is a determinism fixture: its leaf name is on the
// critical list, so every rule applies.
package stream

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Commutative map-range bodies: no findings.
func commutative(m map[int]float64) int {
	count := 0
	sum := 0
	seen := make(map[int]bool)
	for k := range m {
		count++
		if !seen[k] {
			seen[k] = true
			sum += k
		}
	}
	for k := range m {
		delete(m, k)
	}
	return count + sum
}

// Order-exposed bodies: findings.
func orderExposed(m map[int]float64) []int {
	var keys []int
	for k := range m { // want `map iteration with an order-sensitive body`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	total := 0.0
	for _, v := range m { // want `map iteration with an order-sensitive body`
		total += v // float accumulation is order-dependent bitwise
	}
	last := 0
	for k := range m { // want `map iteration with an order-sensitive body`
		last = k
	}
	_ = total
	_ = last
	return keys
}

// A running value stored per key: every statement commutes on its own, the
// stored prefix sums do not (spatial.Index.Reset laid its buckets out this
// way until PR 14).
func runningValue(counts map[int]int) map[int]int {
	starts := make(map[int]int)
	total := 0
	for k, c := range counts { // want `reads the running value of accumulator total`
		starts[k] = total
		total += c
	}
	return starts
}

// An accumulator declared inside the body starts afresh per key: no finding.
func perKeyAccumulator(m map[int][]int) map[int]int {
	sizes := make(map[int]int)
	for k, vs := range m {
		var n int
		n += len(vs)
		sizes[k] = n
	}
	return sizes
}

// The escape hatch silences the finding when justified...
func escapeHatch(m map[int]float64) []int {
	var keys []int
	//datawa:unordered keys are sorted before use below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// ...but a bare escape hatch is itself a finding.
func bareEscape(m map[int]float64) int {
	n := 0
	//datawa:unordered
	for range m { // want `//datawa:unordered needs a justification`
		n++
	}
	return n
}

// Ambient reads: findings, unless injected or allowlisted.
func ambient() float64 {
	t := time.Now()       // want `time.Now \(wall-clock read\) in determinism-critical package`
	r := rand.Float64()   // want `math/rand.Float64 \(process-global rand\) in determinism-critical package`
	_ = os.Getenv("HOME") // want `os.Getenv \(environment read\) in determinism-critical package`
	return float64(t.Unix()) + r
}

// Seeded randomness and method calls are the sanctioned pattern.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// The wallclock escape hatch with a justification.
func pacing() time.Time {
	//datawa:wallclock load-generator pacing, never feeds the plan
	return time.Now()
}

// Bare goroutines: findings, no escape hatch.
func fanOut(jobs []func()) {
	for _, j := range jobs {
		go j() // want `bare go statement in determinism-critical package`
	}
}

// Scenario-sampling loop shapes. Drawing each scenario from its own seeded
// stream in a fixed iteration order is the sanctioned pattern; reaching for
// the process-global source inside the draw loop is a finding even though the
// loop itself is deterministic.
func sampleScenarios(seed int64, k int, probs []float64) []uint64 {
	masks := make([]uint64, len(probs))
	for s := 1; s < k; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)))
		for i, p := range probs {
			if rng.Float64() < p {
				masks[i] |= 1 << s
			}
		}
	}
	return masks
}

func sampleScenariosGlobal(k int, probs []float64) []uint64 {
	masks := make([]uint64, len(probs))
	for s := 1; s < k; s++ {
		for i, p := range probs {
			if rand.Float64() < p { // want `math/rand.Float64 \(process-global rand\) in determinism-critical package`
				masks[i] |= 1 << s
			}
		}
	}
	return masks
}
