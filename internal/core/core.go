// Package core defines the domain model of the DATA-WA paper (Section II):
// spatial tasks, workers with availability windows, task sequences, sequence
// validity, and spatial task assignments.
//
// All times are seconds on a single scenario clock; distances are kilometers
// (see internal/geo).
package core

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// Task is a spatial task s = (l, p, e) per Definition 1: a location, a
// publication time, and an expiration time. A task is performed exactly once,
// at its location.
type Task struct {
	ID  int
	Loc geo.Point
	// Pub is the publication time s.p; the task does not exist before it.
	Pub float64
	// Exp is the expiration time s.e; the task must be reached strictly
	// before it.
	Exp float64
	// Virtual marks tasks synthesized by the demand predictor. Virtual
	// tasks participate in planning (they steer workers toward future
	// demand) but are never counted as assigned.
	Virtual bool
	// Cell is the grid cell this task was generated in, when known.
	// Negative means unknown.
	Cell int
	// SampleBits marks which sampled demand scenarios contain this virtual
	// task: bit k set means scenario k materialized it. Zero means the task
	// belongs to every scenario — the point-forecast virtuals and all real
	// tasks, so planners unaware of scenario sampling need no special case.
	// Only the scenario-sampling forecaster (predict.ScenarioSampler) sets
	// nonzero bits, and only the SSP planner reads them.
	SampleBits uint64
}

// Valid reports whether the task window is internally consistent.
func (s *Task) Valid() bool { return s != nil && s.Exp > s.Pub }

// String implements fmt.Stringer.
func (s *Task) String() string {
	kind := "task"
	if s.Virtual {
		kind = "vtask"
	}
	return fmt.Sprintf("%s#%d@(%.2f,%.2f)[%.0f,%.0f)", kind, s.ID, s.Loc.X, s.Loc.Y, s.Pub, s.Exp)
}

// Worker is an online worker w = (l, d, on, off) per Definition 2.
type Worker struct {
	ID  int
	Loc geo.Point
	// Reach is the reachable distance w.d in kilometers.
	Reach float64
	// On and Off delimit the availability window [on, off): the period the
	// worker accepts task assignments.
	On  float64
	Off float64
}

// Available reports whether the worker's availability window contains t.
func (w *Worker) Available(t float64) bool {
	return w != nil && t >= w.On && t < w.Off
}

// Window returns the length of the availability window off − on.
func (w *Worker) Window() float64 { return w.Off - w.On }

// String implements fmt.Stringer.
func (w *Worker) String() string {
	return fmt.Sprintf("worker#%d@(%.2f,%.2f)d=%.2f[%.0f,%.0f)", w.ID, w.Loc.X, w.Loc.Y, w.Reach, w.On, w.Off)
}

// Sequence is an ordered task sequence R(S_w) per Definition 3: the order in
// which a worker performs its assigned tasks.
type Sequence []*Task

// IDs returns the task ids in order, for diagnostics and stable hashing.
func (q Sequence) IDs() []int {
	out := make([]int, len(q))
	for i, s := range q {
		out[i] = s.ID
	}
	return out
}

// Clone returns a copy of the sequence sharing the task pointers.
func (q Sequence) Clone() Sequence {
	out := make(Sequence, len(q))
	copy(out, q)
	return out
}

// SetKey returns a canonical key identifying the *set* of tasks in q,
// independent of order. Sequences with equal SetKey contain the same tasks.
func (q Sequence) SetKey() string {
	ids := q.IDs()
	sort.Ints(ids)
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// CountReal returns the number of non-virtual tasks in q.
func (q Sequence) CountReal() int {
	n := 0
	for _, s := range q {
		if !s.Virtual {
			n++
		}
	}
	return n
}

// ArrivalTimes computes the arrival time of worker w at each task of q,
// starting from location `from` at time `now`, per Eq. 1 of the paper:
//
//	t(s_1) = now + c(w.l, s_1.l)
//	t(s_i) = t(s_{i-1}) + c(s_{i-1}.l, s_i.l)
//
// One extension is required by demand prediction: a worker that arrives at a
// virtual task before its publication waits until the task is published, so
// the effective arrival is max(raw arrival, s.Pub). For current (already
// published) tasks this is the identity, matching the paper exactly.
func ArrivalTimes(from geo.Point, now float64, q Sequence, tm geo.TravelModel) []float64 {
	out := make([]float64, len(q))
	loc, t := from, now
	for i, s := range q {
		t += tm.Time(loc, s.Loc)
		if t < s.Pub {
			t = s.Pub
		}
		out[i] = t
		loc = s.Loc
	}
	return out
}

// CompletionTime returns the arrival time at the last task of q, or now for
// an empty sequence.
func CompletionTime(from geo.Point, now float64, q Sequence, tm geo.TravelModel) float64 {
	if len(q) == 0 {
		return now
	}
	at := ArrivalTimes(from, now, q, tm)
	return at[len(at)-1]
}

// ValidSequence reports whether q is a valid task sequence VR(S_w) for w at
// time now per Definition 4:
//
//	(i)   every task is reached strictly before its expiration time,
//	(ii)  every task is reached strictly before the worker's off time,
//	(iii) every task lies within the worker's reachable distance of the
//	      worker's current location, the distance itself included, as the
//	      reachable set RS_w and the spatial index admit it.
func ValidSequence(w *Worker, now float64, q Sequence, tm geo.TravelModel) bool {
	if w == nil {
		return false
	}
	at := ArrivalTimes(w.Loc, now, q, tm)
	for i, s := range q {
		if at[i] >= s.Exp {
			return false
		}
		if at[i] >= w.Off {
			return false
		}
		if geo.Dist(w.Loc, s.Loc) > w.Reach {
			return false
		}
	}
	return true
}

// Assignment pairs a worker with its (valid) scheduled task sequence,
// one element of a spatial task assignment A per Definition 5.
type Assignment struct {
	Worker *Worker
	Seq    Sequence
}

// Plan is a spatial task assignment A: a set of (worker, sequence) pairs.
// Each task appears in at most one sequence (single task assignment mode).
type Plan []Assignment

// Tasks returns A.S: the set of all tasks assigned across workers,
// in deterministic order.
func (p Plan) Tasks() []*Task {
	var out []*Task
	for _, a := range p {
		out = append(out, a.Seq...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Size returns |A.S|, the number of assigned tasks (virtual included).
func (p Plan) Size() int {
	n := 0
	for _, a := range p {
		n += len(a.Seq)
	}
	return n
}

// RealSize returns the number of assigned non-virtual tasks.
func (p Plan) RealSize() int {
	n := 0
	for _, a := range p {
		n += a.Seq.CountReal()
	}
	return n
}

// Consistent verifies the single-task-assignment invariant: no task id
// appears twice in the plan. It returns the first duplicated id, if any.
func (p Plan) Consistent() (int, bool) { return p.ConsistentIn(make(map[int]bool)) }

// ConsistentIn is Consistent on the caller's scratch: it clears seen, then
// records in it the task ids it meets. A caller that checks plan after plan
// with one map allocates nothing once the map has grown to its plans' size.
func (p Plan) ConsistentIn(seen map[int]bool) (int, bool) {
	clear(seen)
	for _, a := range p {
		for _, s := range a.Seq {
			if seen[s.ID] {
				return s.ID, false
			}
			seen[s.ID] = true
		}
	}
	return 0, true
}

// Check reports the first way p is not a feasible assignment of the pool
// (workers, tasks) at now under tm, by Definitions 4 and 5 alone, or nil: a
// task assigned twice or not in tasks, a worker assigned twice, not in workers
// or off shift, or a sequence that is not valid (ValidSequence).
func (p Plan) Check(workers []*Worker, tasks []*Task, now float64, tm geo.TravelModel) error {
	if id, ok := p.Consistent(); !ok {
		return fmt.Errorf("task %d assigned twice", id)
	}
	pool := make(map[*Task]bool, len(tasks))
	for _, s := range tasks {
		pool[s] = true
	}
	free := make(map[*Worker]bool, len(workers))
	for _, w := range workers {
		free[w] = w.Available(now)
	}
	for _, a := range p {
		if !free[a.Worker] {
			return fmt.Errorf("worker %v is assigned twice, not in the pool or off shift at %v", a.Worker, now)
		}
		free[a.Worker] = false
		for _, s := range a.Seq {
			if !pool[s] {
				return fmt.Errorf("worker %d holds task %v, not in the pool", a.Worker.ID, s)
			}
		}
		if !ValidSequence(a.Worker, now, a.Seq, tm) {
			return fmt.Errorf("worker %v cannot serve %v at %v", a.Worker, a.Seq.IDs(), now)
		}
	}
	return nil
}

// SortTasksByPub sorts tasks by publication time, breaking ties by id,
// in place. Generators and the stream engine rely on this ordering.
func SortTasksByPub(tasks []*Task) {
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Pub != tasks[j].Pub {
			return tasks[i].Pub < tasks[j].Pub
		}
		return tasks[i].ID < tasks[j].ID
	})
}

// SortWorkersByOn sorts workers by online time, breaking ties by id, in place.
func SortWorkersByOn(ws []*Worker) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].On != ws[j].On {
			return ws[i].On < ws[j].On
		}
		return ws[i].ID < ws[j].ID
	})
}
