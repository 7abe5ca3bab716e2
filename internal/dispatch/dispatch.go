// Package dispatch is the live counterpart of internal/stream: a long-running
// assignment service that accepts concurrent events — worker online/offline,
// task submit/cancel, position updates — into one locked inbox, batches them
// into planning epochs at a fixed cadence, and runs each epoch through the
// existing planner stack. The region is sharded over the demand grid, one
// stream.Machine per shard, and independent shards plan in parallel, on up to
// GOMAXPROCS goroutines, when their last Steps were long enough to pay for
// it. Each shard plans through a ladder of planners (Config.NewLadder) the
// governor may step it down, and predicted tasks come from one global
// stream.DemandFeed (Config.Demand) the dispatcher publishes every submit to
// and refreshes in the epoch's forecast stage.
//
// Determinism contract: event routing is a pure function of the event (the
// shard owning the grid cell of the worker's online location or the task's
// location, per the explicit cell→shard ownership map; a worker keeps its
// shard for its whole session), shard machines are deterministic, per-epoch
// shard results land in per-shard slots merged in shard order, and commit
// arbitration works on that merged, ordered commit set. A dispatcher fed one
// event stream from a single producer therefore produces identical
// assignment state on every run at every GOMAXPROCS — and with one
// shard it reproduces stream.Engine's Assigned/Expired counts on the same
// trace, which the package tests pin down.
//
// Ingestion (WorkerOnline, SubmitTask, …) is safe from any number of
// goroutines and never touches planner state: producers only append to the
// inbox, under its own lock, and only events that pass the one event rule
// every ingest face applies (wellFormed). All planning happens inside
// Advance/Tick under the dispatcher's epoch lock, which Snapshot and PlanOf
// also take.
//
// Cross-shard handoff (multi-shard): shard ownership is an explicit
// cell→shard map over the demand grid — contiguous row-major bands, so each
// shard's territory has a small boundary surface. A task whose halo disk —
// its radius always the largest admitted worker reach — overlaps cells owned
// by other shards is replicated into those shards as a read-only ghost
// candidate, so a worker positioned in or near its own shard's band —
// the steady state, since workers online there and serve nearby tasks — sees
// every task inside its reachability disk regardless of which shard owns it.
// (A worker that task-chains far beyond its band plus the halo radius can
// still miss tasks near its drifted position; the benchmark suite's
// per-cell fidelity_gap bounds the aggregate effect.) Two shards committing
// the same task in one epoch are resolved by a deterministic arbitration
// step after the parallel Step: the earliest-arrival commit wins (worker id,
// then shard id break ties), losers are retracted — the worker resumes the
// rest of its plan in the same instant and re-plans fully next epoch — and
// every surviving copy of a committed task is dropped before the next
// planning instant. Snapshot reports the replication volume (GhostCopies,
// RoutedGhosts), cross-shard wins (GhostHits), and arbitration activity
// (CommitConflicts, Retractions); docs/BENCHMARKS.md records the residual
// fidelity gap per workload in the BENCH_*.json trajectory.
//
// The dispatcher hears from a shard's machine through one change log
// (stream.Machine.TakeChanges: a task was assigned, expired or withdrawn),
// read in one place, the arbitration stage, whose rounds drain every shard
// and ledger the entries they settle. Where a worker or a task is, the
// dispatcher asks the machines (HasWorker, OwnedTask) rather than keeping a
// copy; a machine moves its workers by its planner's travel model, so no
// config carries one.
//
// Measurement: Snapshot exposes counters and epoch-latency percentiles read
// off the always-on epoch histogram (docs/OBSERVABILITY.md says which recorder
// answers which question);
// LoadGen replays a workload.Scenario trace against a dispatcher for
// closed-loop throughput runs. The benchmark suite (internal/benchsuite,
// cmd/datawa-bench -suite) drives exactly that pair for the live-path
// figures in BENCH_*.json.
package dispatch

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
)

// EventKind tags one ingest event.
type EventKind int

const (
	// KindWorkerOnline admits a worker (Event.Worker).
	KindWorkerOnline EventKind = iota
	// KindWorkerOffline ends a worker's availability window (Event.ID).
	KindWorkerOffline
	// KindTaskSubmit publishes a task (Event.Task).
	KindTaskSubmit
	// KindTaskCancel withdraws an open task (Event.ID).
	KindTaskCancel
	// KindPosition reports an idle worker's position (Event.ID, Event.Loc).
	KindPosition
)

// Event is one ingest-queue entry. Time is the logical instant the event
// takes effect: it is applied at the first epoch t with Time ≤ t.
type Event struct {
	Time   float64
	Kind   EventKind
	Worker *core.Worker // KindWorkerOnline
	Task   *core.Task   // KindTaskSubmit
	ID     int          // KindWorkerOffline, KindTaskCancel, KindPosition
	Loc    geo.Point    // KindPosition
}

// Config parameterizes a Dispatcher.
type Config struct {
	// Shards is the number of region shards (default 1). Each shard owns a
	// deterministic subset of the grid's cells and runs its own planner.
	Shards int
	// Grid partitions the region into cells; an explicit ownership map
	// assigns each shard one contiguous row-major band of cells. Required
	// when Shards > 1; one shard does not read it.
	Grid geo.Grid
	// Step is the epoch length in logical seconds (default 1).
	Step float64
	// Now is the initial logical clock (the first epoch instant).
	Now float64
	// Fixed selects FTA semantics (see stream.Config.Fixed).
	Fixed bool
	// NewLadder builds one shard's planners: index 0 is the method's own
	// planner, later entries progressively cheaper fallbacks (e.g. DTA →
	// Greedy → Match) the governor steps down to; without a governor the
	// shard plans at index 0 for life. Required and non-empty. Planners are
	// stateful, so each shard must get its own instances.
	NewLadder func(shard int) []assign.Planner
	// Admission bounds the ingest path; the zero value admits everything.
	Admission AdmissionConfig
	// Governor enables SLA-aware planner degradation when Budget > 0: each
	// shard's windowed p95 epoch cost is held under the budget by stepping
	// that shard down the ladder, recovering hysteretically.
	Governor GovernorConfig
	// Obs configures the observability core — stage spans, the per-task
	// lifecycle ledger, and the flight recorder (see ObsConfig). The epoch
	// and stage wall-time histograms are always on.
	Obs ObsConfig
	// Demand, when non-nil, injects virtual (predicted) tasks. Forecasting
	// is global, not per shard: the one feed sees the full published stream —
	// per-shard series would dilute demand counts below the materialization
	// threshold — and each materialized virtual task is routed to the shard
	// owning its cell. The feed prunes itself to the forecaster's horizon, so
	// it stays bounded over the service's lifetime.
	Demand *stream.DemandFeed
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	return c
}

// ShardMetrics is one shard's slice of a metrics snapshot.
type ShardMetrics struct {
	Shard   int          `json:"shard"`
	Workers int          `json:"workers"`
	Open    int          `json:"open_tasks"`
	Stats   stream.Stats `json:"stats"`
	// Tier is the shard's current degradation-ladder position (0 = full
	// planner) and TierName the active planner's name; zero/empty without
	// a governor.
	Tier     int    `json:"tier"`
	TierName string `json:"tier_name,omitempty"`
}

// Metrics is a point-in-time snapshot of the dispatcher.
type Metrics struct {
	// Now is the next epoch instant on the logical clock.
	Now float64 `json:"now"`
	// Epochs is the number of planning epochs executed.
	Epochs int `json:"epochs"`
	// Ingested counts events accepted onto the queue; Applied counts events
	// that changed shard state; Unroutable counts events that had no effect
	// — unknown or already-departed ids, online/submit events duplicating a
	// still-live id, and events Ingest dropped as not well formed. Events
	// IngestBatch rejects are reported to its caller instead, and a request
	// the HTTP API refuses with 400 moves no counter.
	Ingested   int64 `json:"ingested"`
	Applied    int64 `json:"applied"`
	Unroutable int64 `json:"unroutable"`
	// QueueDepth is the current ingest backlog (inbox + drained-but-unapplied).
	QueueDepth int `json:"queue_depth"`
	// RoutedWorkers and RoutedTasks are the workers active and the tasks
	// open now, each counted once, in its owning shard.
	RoutedWorkers int `json:"routed_workers"`
	RoutedTasks   int `json:"routed_tasks"`
	// RoutedGhosts is the live ghost replicas summed over the shards: the
	// replicated tasks with two shards, copies rather than tasks with more.
	// GhostCopies counts every replica created over the service's lifetime.
	RoutedGhosts int   `json:"routed_ghosts"`
	GhostCopies  int64 `json:"ghost_copies"`
	// GhostHits counts tasks won by a non-owner shard through a replica —
	// assignments the boundary-blind router would have missed.
	GhostHits int64 `json:"ghost_hits"`
	// CommitConflicts counts tasks committed by more than one shard in the
	// same epoch; Retractions counts the losing commits arbitration undid.
	CommitConflicts int64 `json:"commit_conflicts"`
	Retractions     int64 `json:"retractions"`
	// IncrementalHits and ComponentsReplanned are always zero: nothing sets
	// them. They are kept only because benchmark/, which this repository's
	// benchmark contract freezes, still reads them; they go when it may.
	IncrementalHits     int64 `json:"-"`
	ComponentsReplanned int64 `json:"-"`
	// Assigned/Expired/Cancelled/Repositions aggregate all shards; Cancelled
	// also counts the tasks a cancel withdrew while they waited deferred.
	Assigned    int `json:"assigned"`
	Expired     int `json:"expired"`
	Cancelled   int `json:"cancelled"`
	Repositions int `json:"repositions"`
	// Shed counts tasks terminally dropped by admission control — pool
	// displacements (per-shard Stats.Shed) plus ingest-path sheds that
	// never reached a shard. After a full drain, assigned + expired +
	// cancelled + shed accounts every submitted task exactly once.
	// Deferred counts deferral events: non-terminal requeues, one per
	// epoch a task was pushed back, so it can exceed the task count.
	Shed     int64 `json:"shed"`
	Deferred int64 `json:"deferred"`
	// TierDemotions/TierPromotions count governor ladder transitions;
	// WorstTier is the deepest tier any shard reached. All zero without a
	// governor.
	TierDemotions  int64 `json:"tier_demotions"`
	TierPromotions int64 `json:"tier_promotions"`
	WorstTier      int   `json:"worst_tier"`
	// PlanCalls and PlanTime aggregate planner invocations across shards.
	PlanCalls int           `json:"plan_calls"`
	PlanTime  time.Duration `json:"plan_time_ns"`
	// EpochP50/P95/P99 are whole-tick wall-latency percentiles (drain through
	// arbitration) over the service's lifetime, estimated from the epoch
	// histogram's buckets by the histogram_quantile convention — the answer a
	// PromQL query over /metrics gives from the same buckets.
	EpochP50 time.Duration `json:"epoch_p50_ns"`
	EpochP95 time.Duration `json:"epoch_p95_ns"`
	EpochP99 time.Duration `json:"epoch_p99_ns"`
	// Shards breaks the counters down per shard, in shard order.
	Shards []ShardMetrics `json:"shards"`
}

// Dispatcher is the live assignment service. Create with New, feed it events
// (from any goroutine), and advance its epoch clock either manually (Advance,
// Tick — deterministic, used by tests and LoadGen) or on wall time (Serve).
type Dispatcher struct {
	cfg Config

	inMu  sync.Mutex
	inbox []Event // ingested, not yet drained; guarded by inMu

	ingested   atomic.Int64
	applied    atomic.Int64
	unroutable atomic.Int64
	// nowBits is the logical clock, the next epoch instant (Now): set in New,
	// advanced only by tickLocked under mu, read without a lock for stamping.
	nowBits atomic.Uint64
	// synthID assigns server-side task ids for streamed submits with id 0,
	// starting above any client-chosen range (see syntheticIDBase).
	synthID atomic.Int64

	mu sync.Mutex
	// due is the epoch's drained events with Time ≤ its instant, in (Time,
	// ingest order), and pending holds the drained events not yet due and
	// the admission requeues; admission merges the two and leaves due empty,
	// its storage reused (see queue.go).
	due     []pendingEvent     // guarded by mu
	pending heap[pendingEvent] // guarded by mu
	spare   []Event            // the empty buffer drainLocked swaps in; guarded by mu
	seq     int64              // last ingest order stamped, at drain or requeue; guarded by mu
	shards  []*stream.Machine  // slice and elements set in New, immutable after
	smap    *shardMap          // cell ownership; nil with one shard; the table immutable after New, shardsInDisk called under mu
	// Epoch scratch, its storage reused from epoch to epoch. changes holds
	// each shard's change-log entries for one arbitration round; ghosted the
	// ids of the round's ghost commits, sorted; contested the commits of the
	// tasks ghosted names (see arbitrateLocked). byShard holds the forecast
	// stage's virtual tasks split by owning shard, which each machine copies
	// (forecastLocked).
	changes   [][]stream.Change // guarded by mu
	ghosted   []int             // guarded by mu
	contested []commit          // guarded by mu
	byShard   [][]*core.Task    // guarded by mu
	// maxReach is the largest Reach among admitted workers — the halo
	// radius. reGhost marks a pending re-replication pass after maxReach
	// grew; it runs once per tick, since visibility only matters at planning
	// instants and a burst of admissions would otherwise rescan the open
	// pool once per worker.
	maxReach float64 // guarded by mu
	reGhost  bool    // guarded by mu
	// Halo/arbitration counters (see Metrics).
	ghostCopies int64 // guarded by mu
	ghostHits   int64 // guarded by mu
	conflicts   int64 // guarded by mu
	retractions int64 // guarded by mu
	epochs      int   // guarded by mu
	// Admission state: shedIngest counts tasks terminally dropped on the
	// ingest path (never admitted to a shard); deferred counts deferral
	// events (non-terminal requeues); waiting holds the deferred tasks by id
	// until their requeued submit comes due, and withdrawn counts those a
	// cancel took out of it; victims orders the open pool by deadline for
	// displacement.
	shedIngest int64              // guarded by mu
	deferred   int64              // guarded by mu
	waiting    map[int]*core.Task // guarded by mu
	withdrawn  int64              // guarded by mu
	victims    heap[victim]       // guarded by mu
	// Governor state: gov is nil when disabled; tiered holds each shard's
	// ladder, at tier 0 for life without one. probe is what each epoch
	// measures per shard: the Step walls the next epoch's fan-out weighs,
	// and what the governor and the shard spans read.
	gov    *Governor        // guarded by mu
	tiered []*tieredPlanner // guarded by mu
	probe  []shardProbe     // guarded by mu
	// Shard fan-out (stepLocked): grain is shardGrain, 0 only under the
	// tests' hook; fan is the goroutine count the last epoch's shards stepped
	// on, 0 before the first epoch; fanned counts the epochs whose shards
	// stepped on more than one goroutine.
	grain  int // guarded by mu
	fan    int // guarded by mu
	fanned atomic.Int64
	// ob is the observability core: always non-nil — histograms are always
	// on; spans/ledger/flight inside it are gated by Config.Obs.
	ob *obsState // guarded by mu
}

// New builds a dispatcher. It panics on an unusable configuration (missing
// or empty planner ladder, or multiple shards without a grid) — programming
// errors, not runtime conditions.
//
//datawa:locked(mu) the constructor owns the fresh value; no other goroutine can hold a reference yet
func New(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	if cfg.NewLadder == nil {
		panic("dispatch: Config.NewLadder is required")
	}
	if cfg.Shards > 1 && cfg.Grid.Cells() <= 0 {
		panic("dispatch: Config.Grid is required when Shards > 1")
	}
	d := &Dispatcher{
		cfg:    cfg,
		shards: make([]*stream.Machine, cfg.Shards),
		tiered: make([]*tieredPlanner, cfg.Shards),

		pending: heap[pendingEvent]{less: pendingBefore},
		victims: heap[victim]{less: moreDeferrable},
		waiting: make(map[int]*core.Task),
		changes: make([][]stream.Change, cfg.Shards),
		byShard: make([][]*core.Task, cfg.Shards),
		probe:   make([]shardProbe, cfg.Shards),
		grain:   shardGrain,
	}
	d.synthID.Store(syntheticIDBase)
	d.ob = newObsState(cfg.Obs)
	if cfg.Shards > 1 {
		d.smap = newShardMap(cfg.Grid, cfg.Shards)
	}
	for i := range d.shards {
		ladder := cfg.NewLadder(i)
		if len(ladder) == 0 {
			panic("dispatch: Config.NewLadder returned an empty ladder")
		}
		if i == 0 && cfg.Governor.Budget > 0 {
			d.gov = NewGovernor(cfg.Governor, cfg.Shards, len(ladder))
		}
		d.tiered[i] = &tieredPlanner{ladder: ladder, gov: d.gov, shard: i}
		d.shards[i] = stream.NewMachine(stream.MachineConfig{Planner: d.tiered[i], Fixed: cfg.Fixed})
	}
	d.nowBits.Store(math.Float64bits(cfg.Now))
	return d
}

// Now returns the next epoch instant on the logical clock. Events ingested
// through the convenience methods are stamped with it, so they take effect
// at the next epoch.
func (d *Dispatcher) Now() float64 {
	return math.Float64frombits(d.nowBits.Load())
}

// Ingest enqueues one event with an explicit effect time. Safe for
// concurrent use: it appends to the inbox under the inbox lock, never the
// epoch lock, so producers wait on each other only for one append and never
// on a planning epoch. The inbox is unbounded, so a single goroutine can
// enqueue a whole trace before the first epoch runs; sustained overload
// shows up as backlog (Metrics.QueueDepth) and epoch latency, not as lost
// events. An event that is not well formed (wellFormed) is dropped and
// counted in Unroutable: it never reaches the inbox or a shard.
//
//datawa:hotpath
func (d *Dispatcher) Ingest(ev Event) {
	if !wellFormed(&ev) {
		d.unroutable.Add(1)
		return
	}
	d.inMu.Lock()
	d.inbox = append(d.inbox, ev)
	d.inMu.Unlock()
	d.ingested.Add(1)
}

// wellFormed is the one rule for an ingest event, which Ingest, IngestBatch
// and the HTTP handlers all apply. Every float the event carries (time,
// location, reach, window) is finite: a NaN time compares false against
// every instant and has no place in the (Time, ingest order) order admission
// applies events in, an infinite one never comes due, an infinite deadline
// never expires, and an infinite reach or coordinate poisons the halo radius
// and the grid-cell arithmetic every ownership decision is built on. A worker has a
// positive id and reach and a non-empty availability window; a task has a
// non-negative id, since negative ids are the forecaster's virtual tasks,
// and a non-empty validity window. An id-only event needs nothing more: an
// unknown id is counted Unroutable by the epoch that applies it.
//
//datawa:hotpath
func wellFormed(ev *Event) bool {
	if !finite(ev.Time) {
		return false
	}
	switch ev.Kind {
	case KindWorkerOnline:
		w := ev.Worker
		return w != nil && w.ID > 0 && w.Reach > 0 && w.Off > w.On &&
			finite(w.Loc.X, w.Loc.Y, w.Reach, w.On, w.Off)
	case KindTaskSubmit:
		s := ev.Task
		return s != nil && s.ID >= 0 && s.Exp > s.Pub && finite(s.Loc.X, s.Loc.Y, s.Pub, s.Exp)
	case KindPosition:
		return finite(ev.Loc.X, ev.Loc.Y)
	}
	return ev.Kind == KindWorkerOffline || ev.Kind == KindTaskCancel
}

// finite reports whether no value is NaN or ±Inf.
//
//datawa:hotpath
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WorkerOnline admits a worker at the next epoch.
func (d *Dispatcher) WorkerOnline(w *core.Worker) {
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOnline, Worker: w})
}

// WorkerOffline ends a worker's availability window at the next epoch.
func (d *Dispatcher) WorkerOffline(id int) {
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOffline, ID: id})
}

// SubmitTask publishes a task at the next epoch.
func (d *Dispatcher) SubmitTask(s *core.Task) {
	d.Ingest(Event{Time: d.Now(), Kind: KindTaskSubmit, Task: s})
}

// CancelTask withdraws an open task at the next epoch.
func (d *Dispatcher) CancelTask(id int) {
	d.Ingest(Event{Time: d.Now(), Kind: KindTaskCancel, ID: id})
}

// Heartbeat reports a worker's position, applied at the next epoch when the
// worker is idle.
func (d *Dispatcher) Heartbeat(id int, loc geo.Point) {
	d.Ingest(Event{Time: d.Now(), Kind: KindPosition, ID: id, Loc: loc})
}

// shardOf routes a location to its owning shard.
func (d *Dispatcher) shardOf(p geo.Point) int {
	if d.smap == nil {
		return 0
	}
	return d.smap.ownerOf(p)
}

// workerShardLocked finds the shard whose machine holds an active worker.
// The machines are the one record of where a worker is: admission refuses an
// id some shard still holds, so at most one does.
//
//datawa:locked(mu)
func (d *Dispatcher) workerShardLocked(id int) (int, bool) {
	for i, m := range d.shards {
		if m.HasWorker(id) {
			return i, true
		}
	}
	return 0, false
}

// ownerLocked finds the shard that owns an open task: the one whose machine
// holds it open and not as a ghost replica. The machines are the one record
// of where a task is: admission refuses an id some shard still owns, so at
// most one does, and a task's replicas are the other shards holding it open.
//
//datawa:locked(mu)
func (d *Dispatcher) ownerLocked(id int) (int, bool) {
	for i, m := range d.shards {
		if _, ok := m.OwnedTask(id); ok {
			return i, true
		}
	}
	return 0, false
}

// openLocked counts the open tasks, each once: every shard's open pool less
// its ghost replicas.
//
//datawa:locked(mu)
func (d *Dispatcher) openLocked() int {
	n := 0
	for _, m := range d.shards {
		n += m.OpenTasks() - m.Ghosts()
	}
	return n
}

// PlanOf returns the current schedule of a worker, or false when the worker
// is unknown or already departed.
func (d *Dispatcher) PlanOf(workerID int) (stream.WorkerPlan, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	shard, ok := d.workerShardLocked(workerID)
	if !ok {
		return stream.WorkerPlan{}, false
	}
	return d.shards[shard].PlanOf(workerID)
}

// Snapshot returns a consistent metrics snapshot.
func (d *Dispatcher) Snapshot() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Metrics{
		Now:             d.Now(),
		Epochs:          d.epochs,
		Ingested:        d.ingested.Load(),
		Applied:         d.applied.Load(),
		Unroutable:      d.unroutable.Load(),
		QueueDepth:      d.backlogLocked(),
		GhostCopies:     d.ghostCopies,
		GhostHits:       d.ghostHits,
		CommitConflicts: d.conflicts,
		Retractions:     d.retractions,
	}
	h := d.ob.epochHist
	m.EpochP50, m.EpochP95, m.EpochP99 = seconds(h.Quantile(0.50)), seconds(h.Quantile(0.95)), seconds(h.Quantile(0.99))
	m.Shed = d.shedIngest
	m.Deferred = d.deferred
	m.Cancelled = int(d.withdrawn)
	if d.gov != nil {
		m.TierDemotions, m.TierPromotions = d.gov.Counters()
		m.WorstTier = d.gov.Worst()
	}
	for i, sh := range d.shards {
		st := sh.Stats()
		sm := ShardMetrics{
			Shard: i, Workers: sh.Workers(), Open: sh.OpenTasks(), Stats: st,
		}
		if d.gov != nil {
			sm.Tier = d.tiered[i].tier()
			sm.TierName = d.tiered[i].Name()
		}
		m.Shards = append(m.Shards, sm)
		m.RoutedWorkers += sm.Workers
		m.RoutedTasks += sm.Open - sh.Ghosts()
		m.RoutedGhosts += sh.Ghosts()
		m.Assigned += st.Assigned
		m.Expired += st.Expired
		m.Cancelled += st.Cancelled
		m.Repositions += st.Repositions
		m.Shed += int64(st.Shed)
		m.PlanCalls += st.PlanCalls
		m.PlanTime += st.PlanTime
	}
	return m
}

// seconds converts a histogram reading, in seconds, to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// nextSyntheticID allocates a server-assigned task id, above every
// client-chosen one.
func (d *Dispatcher) nextSyntheticID() int { return int(d.synthID.Add(1)) }
