package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	cases := []struct {
		parallelism, work, grain, want int
	}{
		{1, 10, 1, 1},
		{-3, 10, 1, 1},
		{4, 10, 1, 4},
		{4, 2, 1, 2},
		{0, 1, 1, 1},
		{0, 1000 * cpus, 1, cpus},
		// The grain: work below it stays on the caller, and each further
		// goroutine needs a whole grain of its own.
		{4, 255, 256, 1},
		{4, 256, 256, 1},
		{4, 511, 256, 1},
		{4, 512, 256, 2},
		{4, 100000, 256, 4},
		{0, 255, 256, 1},
		// No work at all — an empty forest, a pool with no sequences — is
		// still the caller's goroutine, never zero.
		{0, 0, 4096, 1},
		{4, 0, 1, 1},
		{4, -1, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.parallelism, c.work, c.grain); got != c.want {
			t.Errorf("Workers(%d, %d, %d) = %d, want %d", c.parallelism, c.work, c.grain, got, c.want)
		}
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8, 0} {
		const n = 500
		counts := make([]int32, n)
		Do(n, p, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", p, i, c)
			}
		}
	}
	Do(0, 4, func(int) { t.Fatal("fn called for n = 0") })
	Do(-5, 4, func(int) { t.Fatal("fn called for n < 0") })
}

func TestDoSerialIsInOrder(t *testing.T) {
	var order []int
	Do(6, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v not ascending", order)
		}
	}
}

// TestDoWorkerHandsOutEveryIndexOnce drives the hand-out the way its callers
// do — resolve a count against a grain, size scratch by it, fan out — over job
// counts on both sides of the grain and run lengths that do not divide n.
func TestDoWorkerHandsOutEveryIndexOnce(t *testing.T) {
	const grain = 64
	for _, n := range []int{0, 1, grain - 1, grain, 2*grain + 1, 1000} {
		for _, p := range []int{-1, 0, 1, 2, 3, 8} {
			workers := Workers(p, n, grain)
			if workers < 1 {
				t.Fatalf("n %d parallelism %d: resolved to %d goroutines", n, p, workers)
			}
			counts := make([]int32, n)
			perG := make([]int32, workers) // indexing it is the g < workers check
			DoWorker(n, workers, func(g, i int) {
				atomic.AddInt32(&counts[i], 1)
				atomic.AddInt32(&perG[g], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n %d parallelism %d: index %d ran %d times", n, p, i, c)
				}
			}
		}
	}
	// More goroutines than jobs, and a run length (1000/(3·32) = 10) that
	// does not divide n.
	for _, c := range []struct{ n, workers int }{{3, 8}, {1000, 3}, {1000, 7}, {17, 2}, {1, 4}} {
		counts := make([]int32, c.n)
		perG := make([]int32, min(c.workers, c.n)) // no more goroutines than jobs
		DoWorker(c.n, c.workers, func(g, i int) {
			atomic.AddInt32(&counts[i], 1)
			atomic.AddInt32(&perG[g], 1)
		})
		for i, n := range counts {
			if n != 1 {
				t.Fatalf("n %d workers %d: index %d ran %d times", c.n, c.workers, i, n)
			}
		}
	}
	DoWorker(0, 4, func(int, int) { t.Fatal("fn called for n = 0") })
	DoWorker(-5, 4, func(int, int) { t.Fatal("fn called for n < 0") })
}

// TestDoWorkerBelowGrainIsInline holds the reference path: work below the
// grain resolves to one goroutine whatever the setting, and one goroutine
// means the caller's, in index order, with g = 0.
func TestDoWorkerBelowGrainIsInline(t *testing.T) {
	const grain = 64
	for _, p := range []int{0, 2, 8} {
		for _, n := range []int{1, grain - 1, 2*grain - 1} {
			var order []int // unsynchronised on purpose: -race fails a fan-out
			DoWorker(n, Workers(p, n, grain), func(g, i int) {
				if g != 0 {
					t.Errorf("n %d parallelism %d: g = %d on the inline path", n, p, g)
				}
				order = append(order, i)
			})
			if len(order) != n {
				t.Fatalf("n %d parallelism %d: %d calls", n, p, len(order))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("n %d parallelism %d: order %v not ascending", n, p, order)
				}
			}
		}
	}
}

// goroutineID is the "goroutine N" header of the calling goroutine's stack.
func goroutineID() string {
	var buf [64]byte
	head := string(buf[:runtime.Stack(buf[:], false)])
	return head[:strings.Index(head, " [")]
}

// TestDoWorkerCallerWorks holds the working caller: worker 0 is the goroutine
// that called DoWorker, not a spawned one, and it takes jobs. The other
// workers wait inside their first job until worker 0 has run one, so the
// check does not depend on who the scheduler starts first.
func TestDoWorkerCallerWorks(t *testing.T) {
	const n = 64
	caller := goroutineID()
	started := make(chan struct{})
	var once sync.Once
	var byCaller atomic.Int32
	DoWorker(n, 3, func(g, i int) {
		if g != 0 {
			<-started
			return
		}
		if id := goroutineID(); id != caller {
			t.Errorf("worker 0 runs on %s, the caller is %s", id, caller)
		}
		byCaller.Add(1)
		once.Do(func() { close(started) })
	})
	if byCaller.Load() == 0 {
		t.Fatal("the caller ran no job")
	}
}

var sink atomic.Int64

// BenchmarkDoWorkerTinyJobs is paper-yueche's shape: 624 jobs of one branch
// each (a worker off shift, a one-worker tree). "loop" is the plain loop the
// fan-out competes with, "grain" what a caller with a 256-job grain gets at
// Parallelism 0 (the same loop, through DoWorker), and "fanout" the price of
// waking goroutines for it regardless.
func BenchmarkDoWorkerTinyJobs(b *testing.B) {
	const n = 624
	on := make([]bool, n)
	for i := range on {
		on[i] = i%29 == 0
	}
	job := func(_, i int) {
		if on[i] {
			sink.Add(1)
		}
	}
	b.Run("loop", func(b *testing.B) {
		for b.Loop() {
			for i := 0; i < n; i++ {
				job(0, i)
			}
		}
	})
	b.Run("grain", func(b *testing.B) {
		for b.Loop() {
			DoWorker(n, Workers(0, n/29, 256), job)
		}
	})
	b.Run("fanout", func(b *testing.B) {
		for b.Loop() {
			DoWorker(n, Workers(0, n, 1), job)
		}
	})
}
