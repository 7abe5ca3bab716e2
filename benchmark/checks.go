package main

import (
	"fmt"

	datawa "repro"
	"repro/internal/obs"
)

// checker accumulates output-check failures. A failed check never stops the
// run — every check runs and every failure is printed — but any failure makes
// the command exit non-zero.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// counters is the part of a snapshot that is a pure function of the event
// stream.
type counters struct {
	Assigned, Expired, Cancelled, PlanCalls int
	Shed, IncrementalHits, Conflicts        int64
}

func countersOf(m datawa.DispatchMetrics) counters {
	return counters{
		Assigned: m.Assigned, Expired: m.Expired, Cancelled: m.Cancelled, PlanCalls: m.PlanCalls,
		Shed: m.Shed, IncrementalHits: m.IncrementalHits, Conflicts: m.CommitConflicts,
	}
}

// failedOps is the number of operations of one replay that did not get the
// outcome a client expects: events IngestBatch rejected, tasks without a
// terminal outcome after the drain, and tasks shed. Late cancels and
// heartbeats that find their id gone (Unroutable) are not failures.
func failedOps(r replay, submitted int) int {
	terminal := r.drained.Assigned + r.drained.Expired + r.drained.Cancelled + int(r.drained.Shed)
	lost := submitted - terminal
	if lost < 0 {
		lost = -lost
	}
	return r.rejected + lost + int(r.drained.Shed)
}

// checkReplay runs the checks every replay must pass.
func (c *checker) checkReplay(label string, r replay, submitted, epochs int) {
	if r.rejected != 0 {
		c.failf("%s: IngestBatch rejected %d events", label, r.rejected)
	}
	if len(r.tickNS) != epochs {
		c.failf("%s: ran %d epochs, want %d", label, len(r.tickNS), epochs)
	}
	if !r.quiesced {
		c.failf("%s: dispatcher did not drain within %d epochs", label, quiesceEpochs)
	}
	m := r.drained
	if terminal := m.Assigned + m.Expired + m.Cancelled + int(m.Shed); terminal != submitted {
		c.failf("%s: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d submitted",
			label, m.Assigned, m.Expired, m.Cancelled, m.Shed, terminal, submitted)
	}
}

// checkSame requires two replays of one trace to end with identical counters,
// at T1 and after the drain.
func (c *checker) checkSame(label string, a, b replay) {
	if x, y := countersOf(a.end), countersOf(b.end); x != y {
		c.failf("%s: counters at T1 differ: %+v vs %+v", label, x, y)
	}
	if x, y := countersOf(a.drained), countersOf(b.drained); x != y {
		c.failf("%s: counters after drain differ: %+v vs %+v", label, x, y)
	}
}

// checkReference requires the live single-shard replay to reproduce
// Framework.Run on the same trace.
func (c *checker) checkReference(r replay, ref datawa.Result) {
	if r.end.Assigned != ref.Assigned || r.end.Expired != ref.Expired {
		c.failf("live replay assigned %d expired %d, Framework.Run assigned %d expired %d",
			r.end.Assigned, r.end.Expired, ref.Assigned, ref.Expired)
	}
}

// checkLedger audits the traced replay's task ledger: clean chains, terminal
// counts equal to the snapshot, no task assigned twice, and every assignment
// inside the task's [Pub, Exp) and the worker's [On, Off).
func (c *checker) checkLedger(d *datawa.Dispatcher, tr *trace, r replay) {
	issues, evictions := d.LedgerAudit()
	if len(issues) != 0 || evictions != 0 {
		c.failf("ledger audit: %d evictions, %d issues, first: %v", evictions, len(issues), issues[:min(len(issues), 3)])
	}
	term := d.LedgerTerminals()
	m := r.drained
	if term[obs.Assigned] != m.Assigned || term[obs.Expired] != m.Expired ||
		term[obs.Cancelled] != m.Cancelled || term[obs.Shed] != int(m.Shed) || term[""] != 0 {
		c.failf("ledger terminals %v differ from snapshot assigned %d expired %d cancelled %d shed %d",
			term, m.Assigned, m.Expired, m.Cancelled, m.Shed)
	}
	for id, task := range tr.tasks {
		h, ok := d.TaskHistory(id)
		if !ok {
			c.failf("ledger has no chain for task %d", id)
			continue
		}
		assigned := 0
		for _, t := range h.Transitions {
			if t.State != obs.Assigned {
				continue
			}
			assigned++
			if t.Now < task.Pub || t.Now >= task.Exp {
				c.failf("task %d assigned at %.3f outside its window [%.3f, %.3f)", id, t.Now, task.Pub, task.Exp)
			}
			if w, ok := tr.workers[t.Worker]; !ok {
				c.failf("task %d assigned to unknown worker %d", id, t.Worker)
			} else if t.Now < w.On || t.Now >= w.Off {
				c.failf("task %d assigned at %.3f outside worker %d's window [%.3f, %.3f)", id, t.Now, w.ID, w.On, w.Off)
			}
		}
		if assigned > 1 {
			c.failf("task %d assigned %d times", id, assigned)
		}
	}
}
