package obs

import (
	"fmt"
	"sort"
)

// State is one lifecycle state in a task's disposal chain.
type State string

// The lifecycle states. Every chain starts at Submitted; Assigned, Expired,
// Cancelled and Shed are terminal — exactly one of them ends a well-formed
// chain, and their counts sum to the conservation identity
// (assigned + expired + cancelled + shed == submitted). The rest are
// intermediate: Deferred and Displaced are admission-control detours back to
// the pending queue, GhostReplicated marks a cross-shard replica, Retracted a
// commit undone by arbitration (the task stays open and replans).
const (
	Submitted       State = "submitted"
	Admitted        State = "admitted"
	Deferred        State = "deferred"
	Displaced       State = "displaced"
	GhostReplicated State = "ghost-replicated"
	Retracted       State = "retracted"
	Assigned        State = "assigned"
	Expired         State = "expired"
	Cancelled       State = "cancelled"
	Shed            State = "shed"
)

// Terminal reports whether the state ends a task's chain.
func (s State) Terminal() bool {
	switch s {
	case Assigned, Expired, Cancelled, Shed:
		return true
	}
	return false
}

// Transition is one ledger entry: a task entered State during epoch Epoch at
// logical instant Now. Shard is the shard the transition happened in (-1 for
// dispatcher-level decisions that touch no shard, e.g. an ingest-path shed),
// Worker the committing worker for assignments and retractions, and Cause a
// short human-readable reason ("displaced by task 7", "submit-cap", …). All
// fields are logical — a pure function of the event stream.
type Transition struct {
	State  State   `json:"state"`
	Epoch  int     `json:"epoch"`
	Now    float64 `json:"now"`
	Shard  int     `json:"shard"`
	Worker int     `json:"worker,omitempty"`
	Cause  string  `json:"cause,omitempty"`
}

// TaskHistory is one task's complete transition chain, oldest first.
type TaskHistory struct {
	Task        int          `json:"task"`
	Transitions []Transition `json:"transitions"`
}

// Terminal returns the chain's terminal transition, or false when the task
// is still live.
func (h TaskHistory) Terminal() (Transition, bool) {
	for _, tr := range h.Transitions {
		if tr.State.Terminal() {
			return tr, true
		}
	}
	return Transition{}, false
}

// AuditIssue is one chain-shape violation found by Ledger.Audit.
type AuditIssue struct {
	Task    int    `json:"task"`
	Problem string `json:"problem"`
}

// Ledger records every task's lifecycle transitions, bounded to cap tasks.
// When full it evicts the oldest task that already reached a terminal state
// — a closed case whose evidence has been available the longest — and only
// falls back to evicting the oldest live chain when every retained task is
// still open. Violations of the chain shape (first transition not Submitted,
// any transition after a terminal one) are counted as they are recorded, so
// a conservation-gate failure can point at the exact task even after the
// offending chain is evicted.
//
// A chain is one incarnation of a task id: an id submitted again after its
// chain reached a terminal state starts a new chain, and the finished one is
// retired as an eviction retires it.
type Ledger struct {
	cap        int
	recs       map[int]*TaskHistory
	term       map[int]State
	order      []*TaskHistory // insertion order; may hold retired chains, skipped lazily
	termQ      []*TaskHistory // terminal order; same laziness
	evictions  int64
	violations int64
	samples    []string // first few violation descriptions
}

// NewLedger builds a ledger retaining at most cap task chains (cap ≥ 1).
func NewLedger(cap int) *Ledger {
	if cap < 1 {
		cap = 1
	}
	return &Ledger{
		cap:  cap,
		recs: make(map[int]*TaskHistory, cap),
		term: make(map[int]State, cap),
	}
}

// Record appends one transition to the task's chain, opening the chain when
// the task is new and evicting an old chain if the ledger is at capacity. A
// Submitted after the chain's terminal state opens the id's next chain and
// retires the finished one.
func (l *Ledger) Record(task int, tr Transition) {
	h, ok := l.recs[task]
	if _, done := l.term[task]; done && tr.State == Submitted {
		l.retire(h)
		ok = false
	}
	if !ok {
		if tr.State != Submitted {
			l.violate("task %d: chain starts at %q, not %q", task, tr.State, Submitted)
		}
		if len(l.recs) >= l.cap {
			l.evict()
		}
		h = &TaskHistory{Task: task}
		l.recs[task] = h
		l.order = append(l.order, h)
		l.compact()
	} else if prev, done := l.term[task]; done {
		l.violate("task %d: %q recorded after terminal %q", task, tr.State, prev)
	}
	h.Transitions = append(h.Transitions, tr)
	if tr.State.Terminal() {
		if _, done := l.term[task]; !done {
			l.term[task] = tr.State
			l.termQ = append(l.termQ, h)
		}
	}
}

// evict removes one chain: the oldest terminal one when any exists, the
// oldest chain otherwise.
func (l *Ledger) evict() {
	for len(l.termQ) > 0 {
		h := l.termQ[0]
		l.termQ = l.termQ[1:]
		if l.retained(h) {
			l.retire(h)
			return
		}
	}
	for len(l.order) > 0 {
		h := l.order[0]
		l.order = l.order[1:]
		if l.retained(h) {
			l.retire(h)
			return
		}
	}
}

// retained reports whether h is still its task's chain: not evicted, and not
// followed by a later incarnation of the id.
func (l *Ledger) retained(h *TaskHistory) bool { return l.recs[h.Task] == h }

// retire drops h, its task's current chain, and counts an eviction.
func (l *Ledger) retire(h *TaskHistory) {
	delete(l.recs, h.Task)
	delete(l.term, h.Task)
	l.evictions++
}

// compact drops retired chains from the order queues once they dominate, so
// the queues stay O(cap) even though eviction skips entries lazily.
func (l *Ledger) compact() {
	if len(l.order) > 2*l.cap {
		kept := l.order[:0]
		for _, h := range l.order {
			if l.retained(h) {
				kept = append(kept, h)
			}
		}
		clear(l.order[len(kept):]) // the retired chains' storage goes with them
		l.order = kept
	}
	if len(l.termQ) > 2*l.cap {
		kept := l.termQ[:0]
		for _, h := range l.termQ {
			if l.retained(h) {
				kept = append(kept, h)
			}
		}
		clear(l.termQ[len(kept):])
		l.termQ = kept
	}
}

func (l *Ledger) violate(format string, args ...any) {
	l.violations++
	if len(l.samples) < 8 {
		l.samples = append(l.samples, fmt.Sprintf(format, args...))
	}
}

// History returns a copy of one task's chain, or false when the ledger never
// saw the task (or already evicted it).
func (l *Ledger) History(task int) (TaskHistory, bool) {
	h, ok := l.recs[task]
	if !ok {
		return TaskHistory{}, false
	}
	return TaskHistory{Task: h.Task, Transitions: append([]Transition(nil), h.Transitions...)}, true
}

// Recent returns copies of every retained chain whose last transition is at
// or after sinceEpoch, sorted by task id.
func (l *Ledger) Recent(sinceEpoch int) []TaskHistory {
	var out []TaskHistory
	for id, h := range l.recs {
		if n := len(h.Transitions); n > 0 && h.Transitions[n-1].Epoch >= sinceEpoch {
			out = append(out, TaskHistory{Task: id, Transitions: append([]Transition(nil), h.Transitions...)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// Audit scans every retained chain for shape violations: a chain must start
// at Submitted, contain exactly one terminal transition, and nothing after
// it. Live (no-terminal) chains are reported too — after a full drain every
// task must be terminal, so a live chain there is a leaked task. Results are
// sorted by task id.
func (l *Ledger) Audit() []AuditIssue {
	var out []AuditIssue
	for id, h := range l.recs {
		out = append(out, auditChain(id, h.Transitions)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Problem < out[j].Problem
	})
	return out
}

func auditChain(id int, chain []Transition) []AuditIssue {
	var out []AuditIssue
	if len(chain) == 0 {
		return append(out, AuditIssue{Task: id, Problem: "empty chain"})
	}
	if chain[0].State != Submitted {
		out = append(out, AuditIssue{Task: id, Problem: fmt.Sprintf("chain starts at %q", chain[0].State)})
	}
	terminals := 0
	for _, tr := range chain {
		if terminals > 0 {
			out = append(out, AuditIssue{Task: id, Problem: fmt.Sprintf("%q after terminal state", tr.State)})
			break
		}
		if tr.State.Terminal() {
			terminals++
		}
	}
	if terminals == 0 {
		out = append(out, AuditIssue{Task: id, Problem: "no terminal state"})
	}
	return out
}

// TerminalCounts tallies retained chains by terminal state; live chains
// count under "" (the empty state).
func (l *Ledger) TerminalCounts() map[State]int {
	out := make(map[State]int)
	for id := range l.recs {
		out[l.term[id]]++
	}
	return out
}

// Len is the number of retained chains; Evictions how many were dropped to
// stay within capacity (audits over the full population need Evictions()==0);
// Violations how many chain-shape violations recording detected, with
// ViolationSamples describing the first few.
func (l *Ledger) Len() int          { return len(l.recs) }
func (l *Ledger) Evictions() int64  { return l.evictions }
func (l *Ledger) Violations() int64 { return l.violations }
func (l *Ledger) ViolationSamples() []string {
	return append([]string(nil), l.samples...)
}
