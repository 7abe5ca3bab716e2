// Package par provides the small bounded-parallelism primitive of the live
// dispatcher: run n independent index-addressed jobs on up to a set number of
// goroutines. Callers write results into per-index slots, so output order
// never depends on scheduling and a serial run (one worker) is the exact
// reference semantics of every parallel run.
//
// One layer fans out through it: dispatch steps an epoch's region shards
// with Do when the shards' last Steps overlap by enough to pay for it. Each
// shard's planner plans its instant on the goroutine that steps the shard;
// nothing below the shard fans out again. The contract is the one the shards
// advertise — results byte-identical at every parallelism level, only CPU
// time changes — and it is what lets the benchmark suite
// (internal/benchsuite) compare assignment rates across machines with
// different core counts: the knob moves wall-clock and the CPU-per-epoch
// metric, never the plan.
//
// A fan-out is not free: handing a job to a second goroutine costs a spawn
// and a wake-up of an idle CPU (≈ 30–40 µs on the benchmark host before it
// runs its first job). The caller therefore resolves its setting through
// Workers, which takes the work the jobs have and the least work worth a
// goroutine, and work below that grain stays inline.
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
// least work worth waking a goroutine for, in the caller's unit of work
// (jobs, or something the jobs' cost follows better — the µs of Step wall an
// epoch's shards overlap by); the answer never exceeds work/grain, and is
// never below one, so a loop with no work at all still resolves to the
// caller's own goroutine. The count returned is a parallelism for Do.
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
