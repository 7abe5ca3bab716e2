package par

import (
	"runtime"
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
