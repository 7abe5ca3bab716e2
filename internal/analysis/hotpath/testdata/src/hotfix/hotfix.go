// Package hotfix is the hotpath-analyzer fixture: every banned construct,
// the //datawa:alloc escape hatch, and the proof that un-annotated
// functions are left alone.
package hotfix

import "fmt"

type pair struct{ a, b int }

func sink(v any)     { _ = v }
func release()       {}
func fill(dst []int) {}

// Every construct below allocates on the hot path.
//
//datawa:hotpath
func hotViolations(s string, n int) int {
	buf := make([]byte, n)       // want `make in a hotpath function allocates; preallocate in the owner and reuse`
	f := func() int { return n } // want `closure in a hotpath function: the func value and its captures allocate`
	p := &pair{a: n}             // want `&composite literal in a hotpath function escapes to the heap`
	xs := []int{1, 2, 3}         // want `slice literal in a hotpath function allocates its backing store`
	bs := []byte(s)              // want `string -> \[\]byte conversion copies in a hotpath function`
	sink(n)                      // want `passing int to interface parameter boxes it on the heap in a hotpath function`
	defer release()              // want `defer in a hotpath function: the deferred frame allocates and delays the hot return`
	if n < 0 {
		fmt.Println(n) // want `fmt.Println in a hotpath function allocates`
	}
	return len(buf) + f() + p.a + xs[0] + len(bs)
}

// Value literals, pointer boxing, and cold error branches are fine.
//
//datawa:hotpath
func hotClean(buf []byte, n int) (pair, error) {
	v := pair{a: n, b: n}
	sink(&v) // boxing a pointer stores the word directly: no allocation
	if len(buf) < n {
		return pair{}, fmt.Errorf("short buffer: %d < %d", len(buf), n)
	}
	return v, nil
}

// The escape hatch admits a deliberate allocation with a why...
//
//datawa:hotpath
func hotSlab(n int) []int {
	//datawa:alloc one amortized slab per batch, reused across the epoch
	slab := make([]int, 0, n)
	fill(slab)
	return slab
}

// ...but a bare escape hatch is itself a finding.
//
//datawa:hotpath
func hotBareAlloc(n int) []int {
	//datawa:alloc
	return make([]int, n) // want `//datawa:alloc needs a justification \(why is this allocation acceptable on the hot path\?\)`
}

// Appending to a slice the function declared without capacity grows it from
// nil on every call — the shape that made the search's candidate filter the
// program's top allocator while annotated hotpath.
//
//datawa:hotpath
func hotGrowFromNil(xs []int) ([]int, []int, []int) {
	var out []int
	evens := []int(nil)
	var odds []int = nil
	for _, x := range xs {
		out = append(out, x) // want `append grows a slice this hotpath function declared without capacity, allocating on every call`
		if x%2 == 0 {
			evens = append(evens, x) // want `append grows a slice this hotpath function declared without capacity, allocating on every call`
		} else {
			odds = append(odds, x) // want `append grows a slice this hotpath function declared without capacity, allocating on every call`
		}
	}
	return out, evens, odds
}

// Appending into storage somebody else owns is the sanctioned shape, also
// when it reaches the function's own variable through an assignment.
//
//datawa:hotpath
func hotAppendInto(dst, scratch []int, xs []int) ([]int, []int, []int) {
	var out, slab []int
	out = scratch[:0]
	if len(xs) > 0 {
		//datawa:alloc one slab per call, sized exactly
		slab = make([]int, 0, len(xs))
	}
	for _, x := range xs {
		dst = append(dst, x)
		out = append(out, x)
		slab = append(slab, x)
	}
	return dst, out, slab
}

// No annotation, no rules.
func coldPath(s string, n int) []byte {
	defer release()
	out := make([]byte, 0, n)
	return append(out, s...)
}
