package main

import (
	"runtime"
	"sync"
	"time"

	datawa "repro"
)

// spinSink keeps the canary's result alive so the compiler cannot drop the
// loop.
var spinSink uint64

// spinUpdates sizes the canary: about 60 ms of single-goroutine hash-map
// updates on the baseline host.
const spinUpdates = 4 << 20

// spin runs the host-noise canary: a fixed amount of work that touches no
// code of the program, so a change in its time is a change in the host, not
// in the system under test.
func spin() time.Duration {
	start := time.Now()
	m := make(map[uint64]uint64, 1<<12)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < spinUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>52] += x
	}
	spinSink += m[x>>52]
	return time.Since(start)
}

// spinReferenceMS is what spin takes on the baseline host when nothing else
// contends for the core. Host factors are relative to it.
const spinReferenceMS = 60.0

// canary collects spin readings through a run: before the set-ups, after each
// set-up and after each replay.
type canary struct {
	readings []float64 // ms
}

// read takes one reading on a quiescent runtime: a collection still running
// for the previous replay's garbage would make the reading depend on the
// program under test.
func (c *canary) read() {
	runtime.GC()
	c.readings = append(c.readings, float64(spin().Nanoseconds())/1e6)
}

// factor is how much slower than the uncontended baseline host this run's
// host was: the median reading over spinReferenceMS. The host this runs on
// shares its cores; its speed moves by a quarter over minutes, the same for
// the canary as for the program. The end-to-end time metrics are divided by
// the factor — reported as they would read on the uncontended baseline host —
// so that two runs of one program agree whatever their neighbours were doing.
// The raw readings are printed beside them.
func (c *canary) factor() float64 { return median(c.readings) / spinReferenceMS }

// noisy reports whether the slowest reading exceeds the fastest by more than
// 10%: the host's speed changed during the run.
func (c *canary) noisy() bool {
	s := sortedCopy(c.readings)
	return len(s) > 1 && s[len(s)-1] > 1.10*s[0]
}

// operatorPeriod is the read schedule of the operator probe: 20 Hz.
const operatorPeriod = 50 * time.Millisecond

// operatorProbe reads Dispatcher.Snapshot on a fixed wall schedule from a
// second goroutine while a replay runs — what a dashboard polling the service
// does. Read k is due at start + k·operatorPeriod and is never skipped: when
// a read blocks on the epoch lock past later due times, those reads run back
// to back and are still timed from when they were due, so the wait a stall
// imposes on later reads counts. stop ends the probe and returns, per read,
// the wait from due time to completion and how late the read started.
func operatorProbe(d *datawa.Dispatcher) (stop func() (waits, late []float64)) {
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	var waits, late []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * operatorPeriod)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-done:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-done:
					return
				default:
				}
			}
			begin := time.Now()
			d.Snapshot()
			waits = append(waits, float64(time.Since(due).Nanoseconds())/1e6)
			late = append(late, float64(begin.Sub(due).Nanoseconds())/1e6)
		}
	}()
	return func() ([]float64, []float64) {
		close(done)
		wg.Wait()
		return waits, late
	}
}
