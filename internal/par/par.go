// Package par provides the small bounded-parallelism primitive shared by the
// planning pipeline: run n independent index-addressed jobs on a fixed pool
// of goroutines. Callers write results into per-index slots, so output order
// never depends on scheduling and a serial run (one worker) is the exact
// reference semantics of every parallel run.
//
// Two layers of the pipeline fan out through it, and both advertise the same
// contract — results byte-identical at every parallelism level, only CPU
// time changes:
//
//   - the planners fan one instant's inner loops out with DoWorker: the
//     per-worker reachable-set and sequence loops of wds.Separator and the
//     per-tree searches of assign.Search, which assign.SSP's scenarios go
//     through together;
//   - dispatch fans one epoch across region shards with Do when the shards'
//     last Steps overlap by enough to pay for it, and gives each shard
//     planner the budget divided by that fan-out: all of it when the shards
//     step inline, so the cores are neither oversubscribed Shards-fold nor
//     left idle under a crowd in one shard.
//
// That contract is what lets the benchmark suite (internal/benchsuite)
// compare assignment rates across machines with different core counts: the
// knob moves wall-clock and the CPU-per-instant metric, never the plan.
//
// A fan-out is not free: handing a loop to a second goroutine costs a spawn,
// a wake-up of an idle CPU (≈ 30–40 µs on the benchmark host before it runs
// its first job) and an atomic per hand-out. Every caller therefore resolves
// its setting through Workers, which takes the work the loop has and the
// least work worth a goroutine, and a loop below that grain stays inline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism setting into a goroutine count for a loop
// holding the given amount of work: 0 means up to one per available CPU
// (runtime.GOMAXPROCS), anything below 1 means serial, and positive values
// are an upper bound. grain, a positive constant at the call site, is the
// least work worth waking a goroutine for, in the caller's unit of work (jobs, or something the jobs' cost follows
// better — the sequences in a forest); the answer never exceeds work/grain,
// and is never below one, so a loop with no work at all still resolves to
// the caller's own goroutine.
//
// The count returned is the count DoWorker must be given, and the length a
// caller's per-goroutine scratch must have: g stays below it.
func Workers(parallelism, work, grain int) int {
	p := parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if most := work / grain; p > most {
		p = most
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Do runs fn(0) … fn(n-1), each job on a goroutine of its own up to the
// parallelism setting (0: one per CPU, below 1: serial), and returns when
// all calls have finished. It is the fan-out for a handful of heavy jobs —
// the shards of an epoch: every goroutine is spawned and the caller parks,
// so the scheduler runs the jobs in the order the CPUs come free (see
// docs/ARCHITECTURE.md, "Where the worker pool sits", for why the caller does
// not take a shard itself). With one worker the calls happen inline on the
// caller's goroutine in index order — the deterministic reference path.
//
// fn must confine its writes to state owned by index i; Do adds no locking.
func Do(n, parallelism int, fn func(i int)) {
	workers := Workers(parallelism, n, 1)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runsPerWorker is how many runs of indices DoWorker cuts per goroutine. The
// jobs of a loop worth sharing out are not alike — one tree of a forest can
// hold half its search — so runs are short: up to 64 jobs at two workers go
// out one by one, and a long job delays its goroutine by its own length and
// little else. They are runs at all for the loops of thousands of tiny jobs
// (a pool of workers with nothing in reach, 60 ns each), which then pay one
// contended atomic per run of sixteen or more instead of one per job.
const runsPerWorker = 32

// DoWorker runs fn(g, 0) … fn(g, n-1) on workers goroutines — a count
// resolved by Workers — and returns when all calls have finished. g
// identifies the goroutine running job i, in [0, workers): callers use it to
// give each goroutine private scratch without locking. Job results must
// still land in state owned by index i, so outputs stay order-independent;
// only reusable scratch may be keyed by g.
//
// Indices are handed out in runs, one atomic add per run and at least
// runsPerWorker runs a goroutine, and the caller is worker 0: workers-1
// goroutines are spawned, and the goroutine that already holds a CPU works
// instead of parking. With one worker — or one job — the calls happen inline
// in index order with g = 0: the deterministic reference path.
//
// fn must confine its writes to state owned by index i and scratch owned by
// g; DoWorker adds no locking.
func DoWorker(n, workers int, fn func(g, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	run := max(1, n/(workers*runsPerWorker))
	var next atomic.Int64
	work := func(g int) {
		for {
			end := int(next.Add(int64(run)))
			for i := end - run; i < min(end, n); i++ {
				fn(g, i)
			}
			if end >= n {
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for g := 1; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			work(g)
		}(g)
	}
	work(0)
	wg.Wait()
}
