//go:build race

package assign

// raceEnabled reports whether the race detector is active in this test
// binary: its instrumentation allocates, so allocation budgets measured
// without it do not hold under it.
const raceEnabled = true
