package stream

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
)

// MachineConfig configures one assignment state machine. It is the part of
// Config that is meaningful without a scenario clock range: the replay engine
// (Engine) and the live dispatcher (internal/dispatch) both drive a Machine,
// the engine from presorted worker/task streams, the dispatcher from a
// concurrent event queue.
type MachineConfig struct {
	// Planner computes assignments at each planning instant; the machine
	// moves its workers by the planner's travel model (Planner.Travel).
	Planner assign.Planner
	// Fixed selects FTA semantics (see Config.Fixed).
	Fixed bool
}

// Stats aggregates a machine's lifetime counters. The JSON tags are the wire
// names used by the dispatch service's metrics endpoint.
type Stats struct {
	// Assigned counts real tasks committed to a worker (the paper's headline
	// metric; commitment revalidates the spatio-temporal constraints, so
	// every assignment is also completed).
	Assigned int `json:"assigned"`
	// Expired counts real tasks that left the system unserved.
	Expired int `json:"expired"`
	// Cancelled counts tasks withdrawn by CancelTask before assignment.
	Cancelled int `json:"cancelled"`
	// Shed counts open tasks evicted by admission control (ShedTask) under
	// overload — terminal, like Expired and Cancelled, so conservation stays
	// provable: assigned + expired + cancelled + shed accounts every
	// admitted task.
	Shed int `json:"shed"`
	// Repositions counts moves toward virtual (predicted) tasks.
	Repositions int `json:"repositions"`
	// PlanCalls is the number of planning instants that invoked the planner.
	PlanCalls int `json:"plan_calls"`
	// PlanTime is the total wall time spent inside the planner.
	PlanTime time.Duration `json:"plan_time_ns"`
}

// workerState tracks one worker's runtime. It holds the machine's copy of the
// worker, so admitting a worker allocates one object.
type workerState struct {
	w core.Worker
	// Motion segment; when moving, the worker travels origin→dest during
	// [departT, arriveT].
	origin, dest     geo.Point
	departT, arriveT float64
	moving           bool
	// committed is the real task being executed (motion not interruptible);
	// nil while idle or repositioning toward predicted demand.
	committed *core.Task
	// plan is the remaining planned sequence beyond the committed task. Under
	// FTA (MachineConfig.Fixed) it is the worker's one plan: while it is
	// non-empty the worker is not replanned and its tasks are held out of
	// every other worker's planning pool.
	plan core.Sequence
}

// pos returns the worker's position at time t.
func (ws *workerState) pos(t float64) geo.Point {
	if !ws.moving {
		return ws.w.Loc
	}
	if ws.arriveT <= ws.departT {
		return ws.dest
	}
	return geo.Lerp(ws.origin, ws.dest, (t-ws.departT)/(ws.arriveT-ws.departT))
}

// Machine is the commit/expiry state machine of the Adaptive Algorithm
// (Section IV-C): active workers with motion segments and plans, the open
// task pool, and the virtual tasks it was last handed. Under FTA an open task
// is out of the planning pool exactly while an active worker's plan holds it.
// Callers feed it arrival/departure events (AddWorker, AddTask, RemoveWorker,
// CancelTask, UpdateWorkerPos), advance it with Step, which runs one
// planning instant, and hear what left it through TakeChanges.
//
// A Machine is single-goroutine, like the Engine built on it; concurrent
// drivers must serialize access themselves. The guarded analyzer, run over
// the module by `go test ./internal/analysis`, enforces the consequence:
// fields move only through methods.
//
//datawa:serialized
type Machine struct {
	cfg MachineConfig
	// travel is the planner's travel model, read once: workers move by the
	// cost the plans were built on.
	travel geo.TravelModel

	active    []*workerState // ascending worker id
	byWorker  map[int]*workerState
	open      map[int]*core.Task // published, unexpired, unassigned real tasks
	openOrder []*core.Task
	ghost     map[int]bool // open tasks owned by another shard (read-only replicas)
	virtuals  []*core.Task

	stats Stats
	// changes is the change log TakeChanges drains; its storage is reused.
	changes []Change

	// Per-Step scratch, reused so a steady-state Step allocates only what it
	// publishes (plans). The machine is single-goroutine, so one set of
	// buffers suffices.
	planScratch []*workerState
	wsScratch   []*core.Worker
	poolScratch []*core.Task
	held        map[*core.Task]bool // FTA: the tasks in active workers' plans
	planned     map[int]bool        // the task ids of the plan being checked (core.Plan.ConsistentIn)
}

// ChangeKind names the event a Change records.
type ChangeKind uint8

const (
	// TaskAssigned: task Task committed to worker Worker, who arrives at
	// Arrive. Ghost marks a replica owned by another shard.
	TaskAssigned ChangeKind = iota
	// TaskExpired: owned task Task left the open pool unserved.
	TaskExpired
	// TaskClosed: owned task Task was withdrawn by CancelTask or ShedTask.
	TaskClosed
)

// Change is one entry of a machine's change log: an event its driver must
// hear about to ledger a task's lifecycle or arbitrate a cross-shard commit.
// A ghost replica is logged only when it is assigned — its expiry and
// withdrawal belong to the owning shard — and DropTask logs nothing. A
// commitment later undone by RetractCommit keeps its entry; the driver that
// retracts knows the loser.
type Change struct {
	Kind   ChangeKind
	Ghost  bool
	Task   int
	Worker int
	// Arrive is the worker's arrival instant at the task — the deterministic
	// quality signal arbitration prefers (earlier arrival wins).
	Arrive float64
}

// TakeChanges appends the changes logged since the last call to buf, in the
// order they happened, clears the log and returns the extended buffer. The
// entries are copied out, so nothing the caller holds aliases the log a later
// RetractCommit appends to.
func (m *Machine) TakeChanges(buf []Change) []Change {
	buf = append(buf, m.changes...)
	m.changes = m.changes[:0]
	return buf
}

// NewMachine returns an empty machine.
//
//datawa:locked(Machine) the constructor owns the fresh value
func NewMachine(cfg MachineConfig) *Machine {
	return &Machine{
		cfg:      cfg,
		travel:   cfg.Planner.Travel(),
		byWorker: make(map[int]*workerState),
		open:     make(map[int]*core.Task),
		ghost:    make(map[int]bool),
		held:     make(map[*core.Task]bool),
		planned:  make(map[int]bool),
	}
}

// AddWorker admits a worker at time now (Algorithm 3 lines 3–5). The worker
// is copied, so position updates stay internal. A worker whose availability
// window is already over — or whose id is already active — is ignored; the
// return value reports admission.
func (m *Machine) AddWorker(w *core.Worker, now float64) bool {
	if w == nil || w.Off <= now {
		return false
	}
	if _, dup := m.byWorker[w.ID]; dup {
		return false
	}
	ws := &workerState{w: *w}
	// Keeping the list in id order here is what hands the planner id-sorted
	// workers with no sort per planning instant; evict and RemoveWorker
	// delete in place. Ids mostly arrive ascending, so the search usually
	// ends at the tail and the insert is an append.
	at, _ := slices.BinarySearchFunc(m.active, w.ID, func(ws *workerState, id int) int { return cmp.Compare(ws.w.ID, id) })
	m.active = slices.Insert(m.active, at, ws)
	m.byWorker[w.ID] = ws
	return true
}

// AddTask publishes a real task at time now (lines 6–9). A task that is
// already expired counts toward Stats.Expired and is not admitted; a task
// whose id is already open is rejected outright — two live tasks sharing an
// id would let a plan assign the id twice, which the planner-consistency
// check treats as fatal. The return value reports admission to the open
// pool.
func (m *Machine) AddTask(s *core.Task, now float64) bool {
	if s == nil {
		return false
	}
	if _, dup := m.open[s.ID]; dup {
		return false
	}
	if s.Exp <= now {
		m.stats.Expired++
		return false
	}
	m.open[s.ID] = s
	m.openOrder = append(m.openOrder, s)
	return true
}

// AddGhost publishes a read-only replica of a task owned by another shard's
// machine — the cross-shard handoff path of the sharded dispatcher. Ghosts
// plan and commit exactly like owned tasks (a won commit is a real
// assignment, counted here), but their lifecycle is accounted elsewhere: an
// expired-on-arrival or later-expiring ghost never increments Stats.Expired
// and never enters the change log, so aggregating shard stats counts
// each task once. The return value reports admission to the open pool.
func (m *Machine) AddGhost(s *core.Task, now float64) bool {
	if s == nil || s.Exp <= now {
		return false
	}
	if _, dup := m.open[s.ID]; dup {
		return false
	}
	m.open[s.ID] = s
	m.openOrder = append(m.openOrder, s)
	m.ghost[s.ID] = true
	return true
}

// DropTask silently removes an open task (owned or ghost): no stats, no
// change-log entry. It is the arbitration/cancel cleanup hook — once a
// replicated task is committed or withdrawn anywhere, every other copy must
// leave its pool before the next planning instant, or two shards could
// assign the same task. It reports whether a task left the open pool.
func (m *Machine) DropTask(id int) bool {
	return m.removeOpen(id, nil)
}

// RetractCommit undoes a commitment the worker made this Step — the losing
// side of cross-shard arbitration, invoked before the clock advances past
// the planning instant now. The worker snaps back to its pre-commit
// position, the assignment is uncounted, and the worker immediately resumes
// executing the remainder of its plan (which may produce further commits for
// the next arbitration round). The task itself stays out of the open pool:
// it was won by another shard. It reports whether the commitment existed.
func (m *Machine) RetractCommit(workerID, taskID int, now float64) bool {
	ws, ok := m.byWorker[workerID]
	if !ok || ws.committed == nil || ws.committed.ID != taskID {
		return false
	}
	ws.moving = false
	ws.w.Loc = ws.origin
	ws.committed = nil
	m.stats.Assigned--
	m.executeWorker(ws, now)
	return true
}

// RemoveWorker ends a worker's availability window at time now — the
// dispatcher's worker-offline event. An idle or repositioning worker leaves
// immediately (exactly what the next Step's eviction would do, so the same
// id can come back online within the same planning epoch); a worker
// executing a committed task finishes it first, with the engine's departure
// semantics. The plan leaves with the worker: under FTA, the tasks it held
// return to the pool.
func (m *Machine) RemoveWorker(id int, now float64) bool {
	ws, ok := m.byWorker[id]
	if !ok {
		return false
	}
	if now < ws.w.Off {
		ws.w.Off = now
	}
	if ws.committed == nil {
		delete(m.byWorker, id)
		for i, cur := range m.active {
			if cur == ws {
				m.active = append(m.active[:i], m.active[i+1:]...)
				break
			}
		}
	}
	return true
}

// CancelTask withdraws an open task before assignment. Cancelling a task a
// worker has already committed to is a no-op (the commitment already counted
// as assigned). It reports whether a task left the open pool.
func (m *Machine) CancelTask(id int) bool {
	return m.removeOpen(id, &m.stats.Cancelled)
}

// ShedTask evicts an open task under admission control — the dispatcher's
// overload path. It mirrors CancelTask (a task in a fixed plan leaves too,
// ghost replicas go uncounted) but accounts the closure as Shed:
// the system, not the requester, withdrew the task. Shedding a task a worker
// has already committed to is a no-op — the commitment already counted as
// assigned. It reports whether a task left the open pool.
func (m *Machine) ShedTask(id int) bool {
	return m.removeOpen(id, &m.stats.Shed)
}

// removeOpen takes a task out of the open pool and reports whether it was
// open. An owned task bumps the closed counter and enters the change log as
// TaskClosed; a ghost replica's closure is accounted by its owning shard, and
// a nil counter (DropTask) accounts nothing.
func (m *Machine) removeOpen(id int, closed *int) bool {
	if _, ok := m.open[id]; !ok {
		return false
	}
	owned := !m.ghost[id]
	delete(m.open, id)
	delete(m.ghost, id)
	if owned && closed != nil {
		*closed++
		m.changes = append(m.changes, Change{Kind: TaskClosed, Task: id, Worker: -1})
	}
	return true
}

// UpdateWorkerPos moves an idle worker to a reported position — the
// dispatcher's heartbeat event. It reports whether the worker is known;
// position reports for moving workers are accepted but ignored, since their
// position is owned by the motion segment.
func (m *Machine) UpdateWorkerPos(id int, loc geo.Point) bool {
	ws, ok := m.byWorker[id]
	if !ok {
		return false
	}
	if !ws.moving {
		ws.w.Loc = loc
	}
	return true
}

// Step advances the machine to time now: it completes due motion segments,
// evicts expired tasks and departed workers, runs one planning instant, and
// commits the head of each idle worker's plan. Arrival events and virtual
// tasks (SetVirtuals) for this instant must be applied before the call.
func (m *Machine) Step(now float64) {
	m.completeMotions(now)
	m.evict(now)
	m.plan(now)
	m.execute(now)
}

// Stats returns the lifetime counters.
func (m *Machine) Stats() Stats { return m.stats }

// Workers returns the number of active workers.
func (m *Machine) Workers() int { return len(m.active) }

// HasWorker reports whether a worker with this id is currently active.
func (m *Machine) HasWorker(id int) bool {
	_, ok := m.byWorker[id]
	return ok
}

// OwnedTask returns the open task with this id when the machine owns it —
// holds it open and not as a ghost replica. The caller must treat the task
// as read-only: owned copies may be shared with other shards as ghosts.
func (m *Machine) OwnedTask(id int) (*core.Task, bool) {
	s, ok := m.open[id]
	if !ok || m.ghost[id] {
		return nil, false
	}
	return s, true
}

// AppendOwned appends the owned open tasks to buf, in publication order, and
// returns the extended buffer.
func (m *Machine) AppendOwned(buf []*core.Task) []*core.Task {
	for _, s := range m.openOrder {
		if m.open[s.ID] == s && !m.ghost[s.ID] {
			buf = append(buf, s)
		}
	}
	return buf
}

// OpenTasks returns the number of open (published, unexpired, unassigned)
// real tasks, ghost replicas included.
func (m *Machine) OpenTasks() int { return len(m.open) }

// Ghosts returns the number of open ghost replicas.
func (m *Machine) Ghosts() int { return len(m.ghost) }

// WorkerPlan describes one worker's current schedule for plan queries.
type WorkerPlan struct {
	Worker int `json:"worker"`
	// Committed is the id of the real task the worker is travelling to, or
	// -1 when idle or repositioning.
	Committed int `json:"committed"`
	// Moving reports an in-flight motion segment (committed or reposition).
	Moving bool `json:"moving"`
	// Next holds the ids of the remaining planned tasks beyond the committed
	// one; virtual tasks carry their (negative or synthetic) planner ids.
	Next []int `json:"next"`
}

// PlanOf returns the current schedule of an active worker.
func (m *Machine) PlanOf(id int) (WorkerPlan, bool) {
	ws, ok := m.byWorker[id]
	if !ok {
		return WorkerPlan{}, false
	}
	wp := WorkerPlan{Worker: id, Committed: -1, Moving: ws.moving}
	if ws.committed != nil {
		wp.Committed = ws.committed.ID
	}
	for _, s := range ws.plan {
		wp.Next = append(wp.Next, s.ID)
	}
	return wp, true
}

// completeMotions finishes any motion segment that ends by time t.
func (m *Machine) completeMotions(t float64) {
	for _, ws := range m.active {
		if ws.moving && ws.arriveT <= t {
			ws.moving = false
			ws.w.Loc = ws.dest
			if ws.committed != nil {
				// The committed task is performed on arrival; it was
				// counted as assigned at commitment.
				ws.committed = nil
			}
		}
	}
}

// evict drops expired open tasks and departed workers (line 15). Membership
// of openOrder is checked by pointer identity, not id: after a cancel (or
// cross-shard drop) an id can be reused within the same epoch batch, and an
// id-only check would resurrect the closed entry alongside the new task.
func (m *Machine) evict(t float64) {
	// All three filters compact in place (write index trails read index) and
	// clear the tail so dropped pointers do not outlive their entries.
	keptTasks := m.openOrder[:0]
	for _, s := range m.openOrder {
		if m.open[s.ID] != s {
			continue
		}
		if s.Exp <= t {
			delete(m.open, s.ID)
			// A ghost's lifecycle is accounted by its owning shard.
			if m.ghost[s.ID] {
				delete(m.ghost, s.ID)
				continue
			}
			m.stats.Expired++
			m.changes = append(m.changes, Change{Kind: TaskExpired, Task: s.ID, Worker: -1})
			continue
		}
		keptTasks = append(keptTasks, s)
	}
	clear(m.openOrder[len(keptTasks):])
	m.openOrder = keptTasks

	kept := m.active[:0]
	for _, ws := range m.active {
		// Workers finishing a committed task stay until arrival (validity
		// guaranteed completion before off); all others leave at off.
		if ws.w.Off <= t && ws.committed == nil {
			delete(m.byWorker, ws.w.ID)
			continue
		}
		kept = append(kept, ws)
	}
	clear(m.active[len(kept):])
	m.active = kept

	// The machine owns m.virtuals (SetVirtuals copies into it), so
	// expiring entries compact in place too.
	keptVirtual := m.virtuals[:0]
	for _, v := range m.virtuals {
		if v.Exp > t {
			keptVirtual = append(keptVirtual, v)
		}
	}
	clear(m.virtuals[len(keptVirtual):])
	m.virtuals = keptVirtual
}

// SetVirtuals replaces the machine's virtual-task set with what the driver's
// DemandFeed returned. Expired entries are evicted on the next Step. The
// machine copies v into storage it owns and reuses, so the caller keeps v.
func (m *Machine) SetVirtuals(v []*core.Task) {
	old := m.virtuals
	m.virtuals = append(old[:0], v...)
	if len(old) > len(v) {
		clear(old[len(v):]) // drop the pointers the shorter set no longer covers
	}
}

// plan runs one planning instant (Algorithm 4 via the configured planner).
func (m *Machine) plan(t float64) {
	// m.active is in id order, so planners and workers are too.
	planners, workers := m.planScratch[:0], m.wsScratch[:0]
	clear(m.held)
	for _, ws := range m.active {
		if m.cfg.Fixed {
			for _, s := range ws.plan {
				m.held[s] = true
			}
		}
		if ws.committed != nil {
			continue // executing a real task: not interruptible
		}
		if m.cfg.Fixed && len(ws.plan) > 0 {
			continue // FTA: plan locked
		}
		if !ws.w.Available(t) {
			continue
		}
		// Refresh the worker's location to its position now; a repositioning
		// worker is interrupted at its current point.
		ws.w.Loc = ws.pos(t)
		ws.moving = false
		planners = append(planners, ws)
		workers = append(workers, &ws.w)
	}
	m.planScratch, m.wsScratch = planners, workers
	if len(planners) == 0 {
		return
	}

	// Planning pool: open real tasks no fixed plan holds, plus current
	// virtuals. The identity checks (not just id membership) keep a stale
	// openOrder entry, or a stale plan entry, for a closed-and-reused id from
	// deciding what the pool holds.
	pool := m.poolScratch[:0]
	for _, s := range m.openOrder {
		if m.open[s.ID] == s && !m.held[s] {
			pool = append(pool, s)
		}
	}
	pool = append(pool, m.virtuals...)
	m.poolScratch = pool

	start := time.Now() //datawa:wallclock planner wall-time stats, observability only
	plan := m.cfg.Planner.Plan(workers, pool, t)
	m.stats.PlanTime += time.Since(start) //datawa:wallclock planner wall-time stats, observability only
	m.stats.PlanCalls++

	if dup, ok := plan.ConsistentIn(m.planned); !ok {
		panic(fmt.Sprintf("stream: planner %s assigned task %d twice", m.cfg.Planner.Name(), dup))
	}

	// Every planned worker's sequence is replaced by the new plan (or
	// cleared); under Fixed semantics an assigned worker is now locked.
	for _, ws := range planners {
		ws.plan = nil
	}
	for _, a := range plan {
		m.byWorker[a.Worker.ID].plan = a.Seq
	}
}

// execute starts the first task of each idle worker's planned sequence
// (Algorithm 3 lines 10–14).
func (m *Machine) execute(t float64) {
	for _, ws := range m.active {
		m.executeWorker(ws, t)
	}
}

// executeWorker runs one worker's plan head until it is moving or the plan
// runs dry. It is also the resume path after a commit retraction.
func (m *Machine) executeWorker(ws *workerState, t float64) {
	if ws.moving || !ws.w.Available(t) {
		return
	}
	for len(ws.plan) > 0 && !ws.moving {
		head := ws.plan[0]
		ws.plan = ws.plan[1:]
		if head.Virtual {
			// Reposition toward predicted demand; interruptible.
			if head.Exp <= t {
				continue
			}
			if geo.Dist(ws.w.Loc, head.Loc) < 1e-9 {
				// Already positioned at the predicted demand: hold
				// here and let the next planned task (if any) start.
				continue
			}
			m.startMotion(ws, t, head.Loc, nil)
			m.stats.Repositions++
			continue
		}
		// Revalidate the head against the live clock before committing. The
		// identity check also rejects a plan entry whose id was closed and
		// reused by a different task within the same epoch.
		if m.open[head.ID] != head {
			continue
		}
		arrive := t + m.travel.Time(ws.w.Loc, head.Loc)
		if arrive >= head.Exp || arrive >= ws.w.Off {
			continue // no longer satisfiable; try the next planned task
		}
		delete(m.open, head.ID)
		m.stats.Assigned++
		ghost := m.ghost[head.ID]
		delete(m.ghost, head.ID)
		m.changes = append(m.changes, Change{Kind: TaskAssigned, Ghost: ghost, Task: head.ID, Worker: ws.w.ID, Arrive: arrive})
		m.startMotion(ws, t, head.Loc, head)
	}
}

func (m *Machine) startMotion(ws *workerState, t float64, dest geo.Point, committed *core.Task) {
	ws.origin = ws.w.Loc
	ws.dest = dest
	ws.departT = t
	ws.arriveT = t + m.travel.Time(ws.origin, dest)
	ws.moving = true
	ws.committed = committed
}
