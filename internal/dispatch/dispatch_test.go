package dispatch

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/wds"
	"repro/internal/workload"
)

var travel = geo.NewTravelModel(0.005)

func searchFactory() func(int) assign.Planner {
	return func(int) assign.Planner {
		return &assign.Search{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}
	}
}

func greedyFactory() func(int) assign.Planner {
	return func(int) assign.Planner {
		return &assign.Greedy{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}
	}
}

// oneTier turns a planner factory into the one-rung ladder Config.NewLadder
// takes: what every test without a governor plans with. Every plan of the
// rung is held to core.Plan.Check.
func oneTier(f func(int) assign.Planner) func(int) []assign.Planner {
	return func(shard int) []assign.Planner { return []assign.Planner{checked{f(shard)}} }
}

// checked is a Planner whose every plan is held to core.Plan.Check: a replay
// through it panics on the first infeasible plan.
type checked struct{ assign.Planner }

func (c checked) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	p := c.Planner.Plan(workers, tasks, now)
	if err := p.Check(workers, tasks, now, c.Travel()); err != nil {
		panic(fmt.Sprintf("%s planned an infeasible plan at %v: %v", c.Name(), now, err))
	}
	return p
}

// SetParallelism forwards the dispatcher's per-planner goroutine budget.
func (c checked) SetParallelism(n int) {
	if sp, ok := c.Planner.(interface{ SetParallelism(int) }); ok {
		sp.SetParallelism(n)
	}
}

func testScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	cfg := workload.Yueche().Scaled(0.03)
	cfg.HistoryDuration = 0
	return workload.Generate(cfg)
}

// replay drives a fresh dispatcher over the scenario trace at the given
// shard count and returns its final snapshot.
func replay(sc *workload.Scenario, shards int, factory func(int) assign.Planner, fixed bool, step float64, parallelism int) Metrics {
	d := New(Config{
		Shards:      shards,
		Grid:        sc.Grid,
		Step:        step,
		Now:         sc.T0,
		Fixed:       fixed,
		NewLadder:   oneTier(factory),
		Parallelism: parallelism,
	})
	g := LoadGen{Events: sc.Events(), T1: sc.T1}
	return g.Run(d).Metrics
}

// TestSingleShardMatchesStreamEngine is the subsystem's equivalence
// contract: a dispatcher replaying a scenario's event trace with one shard
// must reproduce the replay engine's Assigned/Expired counts exactly, for
// both adaptive (DTA) and fixed (FTA) semantics and the Greedy baseline.
func TestSingleShardMatchesStreamEngine(t *testing.T) {
	sc := testScenario(t)
	cases := []struct {
		name    string
		factory func(int) assign.Planner
		fixed   bool
	}{
		{"DTA", searchFactory(), false},
		{"FTA", searchFactory(), true},
		{"Greedy", greedyFactory(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const step = 2
			ref := stream.Run(
				stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1},
				stream.Config{Planner: checked{tc.factory(0)}, Fixed: tc.fixed, Step: step},
			)
			got := replay(sc, 1, tc.factory, tc.fixed, step, 1)
			if got.Assigned != ref.Assigned || got.Expired != ref.Expired {
				t.Fatalf("dispatch assigned/expired = %d/%d, engine = %d/%d",
					got.Assigned, got.Expired, ref.Assigned, ref.Expired)
			}
			if got.Repositions != ref.Repositions || got.PlanCalls != ref.PlanCalls {
				t.Fatalf("dispatch repositions/planCalls = %d/%d, engine = %d/%d",
					got.Repositions, got.PlanCalls, ref.Repositions, ref.PlanCalls)
			}
		})
	}
}

// stubForecaster announces a fixed set of virtual tasks and logs what it was
// handed — the instant and the published ids — so two drivers can be held to
// one published sequence.
type stubForecaster struct {
	tasks []*core.Task
	span  float64
	log   []string
}

func (s *stubForecaster) Virtuals(published []*core.Task, now float64) []*core.Task {
	ids := make([]int, len(published))
	for i, p := range published {
		ids[i] = p.ID
	}
	s.log = append(s.log, fmt.Sprint(now, ids))
	var out []*core.Task
	for _, v := range s.tasks {
		if v.Exp > now {
			out = append(out, v)
		}
	}
	return out
}

func (s *stubForecaster) Span() float64        { return s.span }
func (s *stubForecaster) HistorySpan() float64 { return 2 * s.span }

// TestSingleShardForecastMatchesStreamEngine extends the equivalence
// contract to the prediction path: at one shard the dispatcher's demand feed
// must be handed, forecast for forecast, the very tasks the engine's is —
// training history first, every submit including the expired-on-arrival, a
// second submit of a still-open id left out, the aged-out pruned — and the
// outcomes must agree.
func TestSingleShardForecastMatchesStreamEngine(t *testing.T) {
	sc := testScenario(t)
	const (
		step               = 2
		live, dead, before = 900001, 900002, 800001
	)
	nowhere := geo.Point{X: -50, Y: -50} // out of every worker's reach: stays open
	tasks := append(slices.Clone(sc.Tasks),
		&core.Task{ID: live, Loc: nowhere, Pub: sc.T0 + 10, Exp: sc.T0 + 100},
		&core.Task{ID: live, Loc: nowhere, Pub: sc.T0 + 20, Exp: sc.T0 + 100},
		&core.Task{ID: dead, Loc: nowhere, Pub: sc.T0 + 11, Exp: sc.T0 + 11.5},
	)
	history := []*core.Task{
		{ID: before, Loc: nowhere, Pub: sc.T0 - 30, Exp: sc.T0},
		{ID: before + 1, Loc: nowhere, Pub: sc.T0 - 200, Exp: sc.T0 - 100}, // past the horizon at T0
	}
	// Predict demand at a fixed point mid-region for the whole run — enough
	// to trigger repositioning in both drivers.
	v := &core.Task{ID: -1, Loc: geo.Point{X: 2, Y: 2}, Pub: 0, Exp: sc.T1, Virtual: true, Cell: -1}
	fromEngine := &stubForecaster{tasks: []*core.Task{v}, span: 60}
	ref := stream.Run(
		stream.Input{Workers: sc.Workers, Tasks: tasks, T0: sc.T0, T1: sc.T1},
		stream.Config{
			Planner: checked{searchFactory()(0)},
			Step:    step,
			Demand:  stream.NewDemandFeed(fromEngine, history),
		},
	)
	fromDispatcher := &stubForecaster{tasks: []*core.Task{v}, span: 60}
	d := New(Config{
		Shards:    1,
		Step:      step,
		Now:       sc.T0,
		NewLadder: oneTier(searchFactory()),
		Demand:    stream.NewDemandFeed(fromDispatcher, history),
	})
	replayed := *sc
	replayed.Tasks = tasks
	got := LoadGen{Events: replayed.Events(), T1: sc.T1}.Run(d).Metrics
	if got.Assigned != ref.Assigned || got.Expired != ref.Expired || got.Repositions != ref.Repositions {
		t.Fatalf("dispatch assigned/expired/repositions = %d/%d/%d, engine = %d/%d/%d",
			got.Assigned, got.Expired, got.Repositions, ref.Assigned, ref.Expired, ref.Repositions)
	}
	if got.Repositions == 0 {
		t.Fatal("stub forecast produced no repositions; the prediction path was not exercised")
	}
	if !slices.Equal(fromDispatcher.log, fromEngine.log) {
		t.Fatalf("dispatcher's forecaster was handed\n%s\nengine's\n%s", strings.Join(fromDispatcher.log, "\n"), strings.Join(fromEngine.log, "\n"))
	}
	if len(fromEngine.log) < 2 {
		t.Fatalf("%d forecasts; want the cadence to come round", len(fromEngine.log))
	}
	if want := fmt.Sprint(sc.T0, []int{before}); fromEngine.log[0] != want {
		t.Fatalf("first forecast was handed %s, want the training history inside the horizon, %s", fromEngine.log[0], want)
	}
	second := " " + strings.Trim(strings.SplitN(fromEngine.log[1], " ", 2)[1], "[]") + " "
	if strings.Count(second, fmt.Sprint(" ", live, " ")) != 1 || strings.Count(second, fmt.Sprint(" ", dead, " ")) != 1 {
		t.Fatalf("second forecast was handed %s: want the still-open id %d once and the expired-on-arrival %d", fromEngine.log[1], live, dead)
	}
}

// digest reduces a snapshot to its deterministic assignment outcome,
// excluding wall-clock fields.
func digest(m Metrics) string {
	s := fmt.Sprintf("assigned=%d expired=%d cancelled=%d repositions=%d planCalls=%d epochs=%d ghosts=%d/%d conflicts=%d/%d;",
		m.Assigned, m.Expired, m.Cancelled, m.Repositions, m.PlanCalls, m.Epochs,
		m.GhostCopies, m.GhostHits, m.CommitConflicts, m.Retractions)
	for _, sh := range m.Shards {
		s += fmt.Sprintf(" shard%d{w=%d open=%d a=%d e=%d c=%d r=%d}",
			sh.Shard, sh.Workers, sh.Open, sh.Stats.Assigned, sh.Stats.Expired,
			sh.Stats.Cancelled, sh.Stats.Repositions)
	}
	return s
}

// TestMultiShardDeterministic pins the other half of the contract: a fixed
// seed and shard count yield a byte-identical outcome on every run, at every
// parallelism level.
func TestMultiShardDeterministic(t *testing.T) {
	sc := testScenario(t)
	ref := digest(replay(sc, 4, searchFactory(), false, 2, 1))
	for run := 0; run < 2; run++ {
		for _, parallelism := range []int{1, 2, 4, 0} {
			got := digest(replay(sc, 4, searchFactory(), false, 2, parallelism))
			if got != ref {
				t.Fatalf("run %d parallelism %d diverged:\n got %s\nwant %s", run, parallelism, got, ref)
			}
		}
	}
}

// TestPlannerFanOutAcrossParallelism is the determinism contract one level down:
// a single shard hands its planner the whole parallelism budget, and on a pool
// this size — 1,800 workers on shift, 45,000 candidate sequences, past the
// grains of wds.Separate and Search.Plan at every setting tried — the
// planner's own loops do fan out. (The multi-shard tests around this one
// step their small shards inline, and their planners stay on the caller's
// goroutine; TestShardFanOutMatchesInline hooks the shards onto par.Do.)
func TestPlannerFanOutAcrossParallelism(t *testing.T) {
	run := func(parallelism int) string {
		d := New(Config{Step: 1, NewLadder: oneTier(searchFactory()), Parallelism: parallelism})
		for c := 0; c < 900; c++ {
			x, y := float64(c%30), float64(c/30)
			for k := 0; k < 2; k++ {
				d.WorkerOnline(&core.Worker{ID: 2*c + k + 1, Loc: geo.Point{X: x + 0.1*float64(k), Y: y}, Reach: 0.4, On: 0, Off: 1800})
			}
			for k := 0; k < 5; k++ {
				d.SubmitTask(&core.Task{ID: 5*c + k + 1, Loc: geo.Point{X: x + 0.05*float64(k), Y: y + 0.03*float64(k*k%7)},
					Pub: 0, Exp: 200 + 40*float64(k), Cell: -1})
			}
		}
		d.Advance(3)
		m := d.Snapshot()
		if m.Assigned == 0 {
			t.Fatal("the crowd instant committed nothing")
		}
		return digest(m)
	}
	ref := run(1)
	for _, parallelism := range []int{2, 4, 0} {
		if got := run(parallelism); got != ref {
			t.Fatalf("parallelism %d diverged:\n got %s\nwant %s", parallelism, got, ref)
		}
	}
}

// TestMultiShardConservation checks that sharding loses no tasks: every real
// task is either assigned or expires, across all shards. The replay horizon
// extends past the last task's expiration so nothing is still in flight.
func TestMultiShardConservation(t *testing.T) {
	sc := testScenario(t)
	for _, shards := range []int{2, 4, 9} {
		d := New(Config{
			Shards: shards, Grid: sc.Grid, Step: 2, Now: sc.T0,
			NewLadder: oneTier(searchFactory()),
		})
		horizon := sc.T1 + sc.Config.TaskValid + 2
		m := LoadGen{Events: sc.Events(), T1: horizon}.Run(d).Metrics
		if len(m.Shards) != shards {
			t.Fatalf("snapshot has %d shards, want %d", len(m.Shards), shards)
		}
		if m.Assigned+m.Expired != len(sc.Tasks) {
			t.Fatalf("%d shards: %d assigned + %d expired != %d tasks",
				shards, m.Assigned, m.Expired, len(sc.Tasks))
		}
		if m.Unroutable != 0 {
			t.Fatalf("%d shards: %d unroutable trace events", shards, m.Unroutable)
		}
	}
}

func singleShard(planner func(int) assign.Planner) *Dispatcher {
	return New(Config{Step: 1, NewLadder: oneTier(planner)})
}

func TestWorkerOfflineReleasesWorker(t *testing.T) {
	d := singleShard(searchFactory())
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 1, On: 0, Off: 1000})
	d.Advance(1)
	if _, ok := d.PlanOf(1); !ok {
		t.Fatal("worker 1 should be active")
	}
	d.WorkerOffline(1)
	d.Advance(3)
	if _, ok := d.PlanOf(1); ok {
		t.Fatal("worker 1 should have departed after going offline")
	}
	// A task published after the worker left must expire.
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 3, Exp: 60, Cell: -1})
	d.Advance(100)
	m := d.Snapshot()
	if m.Assigned != 0 || m.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 0/1", m.Assigned, m.Expired)
	}
}

func TestTaskCancelPreventsAssignment(t *testing.T) {
	d := singleShard(searchFactory())
	// The worker comes online later; the task is cancelled before any
	// planner can see both.
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(2)
	d.CancelTask(10)
	d.Advance(4)
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 1, On: 4, Off: 1000})
	d.Advance(200)
	m := d.Snapshot()
	if m.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", m.Cancelled)
	}
	if m.Assigned != 0 {
		t.Fatalf("assigned = %d, want 0 (task was withdrawn)", m.Assigned)
	}
	if m.Expired != 0 {
		t.Fatalf("expired = %d, want 0 (cancelled, not expired)", m.Expired)
	}
}

func TestHeartbeatMovesIdleWorker(t *testing.T) {
	d := singleShard(searchFactory())
	// Worker far from the task; a heartbeat teleports it within reach.
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 3}, Reach: 0.5, On: 0, Off: 1000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 100, Cell: -1})
	d.Advance(2)
	if m := d.Snapshot(); m.Assigned != 0 {
		t.Fatalf("assigned = %d before heartbeat, want 0", m.Assigned)
	}
	d.Heartbeat(1, geo.Point{X: 0.2})
	d.Advance(90)
	if m := d.Snapshot(); m.Assigned != 1 {
		t.Fatalf("assigned = %d after heartbeat, want 1", m.Assigned)
	}
}

func TestUnroutableEventsCounted(t *testing.T) {
	d := singleShard(searchFactory())
	d.WorkerOffline(99)
	d.CancelTask(99)
	d.Heartbeat(99, geo.Point{})
	d.Advance(1)
	m := d.Snapshot()
	if m.Unroutable != 3 {
		t.Fatalf("unroutable = %d, want 3", m.Unroutable)
	}
	if m.Applied != 0 {
		t.Fatalf("applied = %d, want 0", m.Applied)
	}
}

// TestFutureEventsWaitForTheirEpoch verifies that an event stamped ahead of
// the clock stays pending until the epoch covering its instant.
func TestFutureEventsWaitForTheirEpoch(t *testing.T) {
	d := singleShard(searchFactory())
	d.Ingest(Event{Time: 5, Kind: KindWorkerOnline,
		Worker: &core.Worker{ID: 1, Reach: 1, On: 5, Off: 1000}})
	d.Advance(5) // epochs 0..4: event not yet due
	if _, ok := d.PlanOf(1); ok {
		t.Fatal("worker admitted before its online instant")
	}
	if m := d.Snapshot(); m.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1 pending event", m.QueueDepth)
	}
	d.Advance(6) // epoch 5 admits it
	if _, ok := d.PlanOf(1); !ok {
		t.Fatal("worker not admitted at its online instant")
	}
}

// TestDuplicateTaskSubmitRejected pins the fix for a remotely triggerable
// crash: two live tasks sharing an id could both enter one shard's planning
// pool and make the plan-consistency check panic.
func TestDuplicateTaskSubmitRejected(t *testing.T) {
	d := singleShard(searchFactory())
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 2, On: 0, Off: 10000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 9000, Cell: -1})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.9}, Pub: 0, Exp: 9000, Cell: -1})
	d.Advance(200) // must not panic
	m := d.Snapshot()
	if m.Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1 (duplicate submit)", m.Unroutable)
	}
	if m.Assigned != 1 {
		t.Fatalf("assigned = %d, want 1 (single live copy of task 10)", m.Assigned)
	}
	// Once the id has been served it may be reused.
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.2}, Pub: 200, Exp: 9000, Cell: -1})
	d.Advance(400)
	if m := d.Snapshot(); m.Assigned != 2 {
		t.Fatalf("assigned = %d, want 2 (id reuse after completion)", m.Assigned)
	}
}

// TestDuplicateWorkerOnlineRejected: re-onlining a live id must not orphan
// the existing copy (or strand it in another shard); after departure the id
// is reusable.
func TestDuplicateWorkerOnlineRejected(t *testing.T) {
	d := singleShard(searchFactory())
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 1, On: 0, Off: 100})
	d.Advance(1)
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 2}, Reach: 1, On: 1, Off: 5000})
	d.Advance(2)
	m := d.Snapshot()
	if m.Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1 (duplicate online)", m.Unroutable)
	}
	if got := m.Shards[0].Workers; got != 1 {
		t.Fatalf("active workers = %d, want 1", got)
	}
	// The original window stands: the worker departs at its own off.
	d.Advance(101)
	if _, ok := d.PlanOf(1); ok {
		t.Fatal("worker should have departed at the original off time")
	}
	// A departed id can come back online.
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 1, On: 101, Off: 5000})
	d.Advance(103)
	if _, ok := d.PlanOf(1); !ok {
		t.Fatal("departed worker id should be re-admittable")
	}
}

// TestOfflineThenOnlineSameEpoch: a worker that goes offline and comes back
// online within one epoch batch must end up online — the offline releases
// the id immediately, so the later online is not mistaken for a duplicate.
// On two shards the new session comes online across the y = 2 band
// boundary: everything about the worker afterwards — a heartbeat, a plan
// query, the next offline — must find it in its new shard.
func TestOfflineThenOnlineSameEpoch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		d        *Dispatcher
		from, to geo.Point
	}{
		{"one shard", singleShard(searchFactory()), geo.Point{}, geo.Point{X: 0.3}},
		{"two shards", New(handoffConfig()), geo.Point{X: 1, Y: 1}, geo.Point{X: 1, Y: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			last := len(d.shards) - 1
			d.WorkerOnline(&core.Worker{ID: 1, Loc: tc.from, Reach: 1, On: 0, Off: 100})
			d.Advance(1)
			// Both land in the epoch at t=1, offline first in ingest order.
			d.WorkerOffline(1)
			d.WorkerOnline(&core.Worker{ID: 1, Loc: tc.to, Reach: 1, On: 1, Off: 500})
			d.Advance(2)
			m := d.Snapshot()
			if m.Unroutable != 0 {
				t.Fatalf("unroutable = %d, want 0 (re-online must be accepted)", m.Unroutable)
			}
			if m.RoutedWorkers != 1 || m.Shards[last].Workers != 1 {
				t.Fatalf("routed workers = %d, shard %d holds %d; want the one worker there",
					m.RoutedWorkers, last, m.Shards[last].Workers)
			}
			if _, ok := d.PlanOf(1); !ok {
				t.Fatal("worker must be online after the offline/online pair")
			}
			// A heartbeat reaches the new session's shard.
			applied := m.Applied
			d.Heartbeat(1, tc.to)
			d.Advance(3)
			if m = d.Snapshot(); m.Unroutable != 0 || m.Applied != applied+1 {
				t.Fatalf("heartbeat: unroutable/applied = %d/%d, want 0/%d", m.Unroutable, m.Applied, applied+1)
			}
			// The new session's window applies: still online after the old off.
			d.Advance(200)
			if _, ok := d.PlanOf(1); !ok {
				t.Fatal("replacement session ended at the old window's off time")
			}
			// And so does a later offline.
			d.WorkerOffline(1)
			d.Advance(202)
			m = d.Snapshot()
			if m.Unroutable != 0 || m.RoutedWorkers != 0 {
				t.Fatalf("after the offline: unroutable/routed workers = %d/%d, want 0/0", m.Unroutable, m.RoutedWorkers)
			}
			if _, ok := d.PlanOf(1); ok {
				t.Fatal("worker still has a plan after its offline")
			}
		})
	}
}

// TestRoutingStateRetired: routing entries must track the live population —
// once workers depart and tasks close, the maps drain back to zero and
// references to the retired ids become unroutable.
func TestRoutingStateRetired(t *testing.T) {
	d := singleShard(searchFactory())
	d.WorkerOnline(&core.Worker{ID: 1, Reach: 1, On: 0, Off: 50})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 30, Cell: -1})
	d.Advance(1)
	m := d.Snapshot()
	if m.RoutedWorkers != 1 || m.RoutedTasks != 0 {
		t.Fatalf("routed workers/tasks = %d/%d, want 1/0 (task committed at t=0)",
			m.RoutedWorkers, m.RoutedTasks)
	}
	d.Advance(100) // worker departs at 50
	m = d.Snapshot()
	if m.RoutedWorkers != 0 || m.RoutedTasks != 0 {
		t.Fatalf("routing maps not drained: workers=%d tasks=%d", m.RoutedWorkers, m.RoutedTasks)
	}
	// Events about retired ids have no effect and say so.
	d.Heartbeat(1, geo.Point{})
	d.CancelTask(10)
	d.Advance(102)
	if m = d.Snapshot(); m.Unroutable != 2 {
		t.Fatalf("unroutable = %d, want 2", m.Unroutable)
	}
}

// TestIngestBeyondQueueCapacity: a single goroutine must be able to enqueue
// a long run of events without an epoch running in between — the inbox
// grows instead of dropping or blocking.
func TestIngestBeyondQueueCapacity(t *testing.T) {
	d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
	const n = 1000
	for i := 0; i < n; i++ {
		d.Ingest(Event{Time: 0, Kind: KindTaskSubmit,
			Task: &core.Task{ID: i + 1, Loc: geo.Point{X: 3}, Pub: 0, Exp: 5, Cell: -1}})
	}
	d.Advance(10)
	m := d.Snapshot()
	if m.Ingested != n || m.Applied != n {
		t.Fatalf("ingested/applied = %d/%d, want %d/%d", m.Ingested, m.Applied, n, n)
	}
	if m.Expired != n {
		t.Fatalf("expired = %d, want %d (no workers)", m.Expired, n)
	}
}

// TestSnapshotLatencies sanity-checks the percentile plumbing.
func TestSnapshotLatencies(t *testing.T) {
	sc := testScenario(t)
	m := replay(sc, 2, searchFactory(), false, 2, 0)
	if m.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	if m.EpochP50 <= 0 || m.EpochP99 < m.EpochP95 || m.EpochP95 < m.EpochP50 {
		t.Fatalf("implausible percentiles p50=%v p95=%v p99=%v", m.EpochP50, m.EpochP95, m.EpochP99)
	}
	if m.PlanCalls == 0 || m.PlanTime <= 0 {
		t.Fatalf("planner accounting missing: calls=%d time=%v", m.PlanCalls, m.PlanTime)
	}
}

// TestSnapshotPercentilesReadEpochHistogram pins the one-recorder contract:
// the snapshot's percentiles are the epoch histogram's quantiles, so
// /v1/metrics and a histogram_quantile over /metrics agree by construction.
func TestSnapshotPercentilesReadEpochHistogram(t *testing.T) {
	d := singleShard(greedyFactory())
	if m := d.Snapshot(); m.EpochP50 != 0 || m.EpochP99 != 0 {
		t.Fatalf("percentiles before the first epoch = %v/%v, want 0", m.EpochP50, m.EpochP99)
	}
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 1, On: 0, Off: 1000})
	d.Advance(50)
	m := d.Snapshot()
	epoch, _ := d.Histograms()
	if epoch.Count != uint64(m.Epochs) {
		t.Fatalf("epoch histogram holds %d samples after %d epochs", epoch.Count, m.Epochs)
	}
	for _, c := range []struct {
		q    float64
		snap time.Duration
	}{{0.50, m.EpochP50}, {0.95, m.EpochP95}, {0.99, m.EpochP99}} {
		if want := seconds(epoch.Quantile(c.q)); c.snap != want {
			t.Errorf("snapshot p%g = %v, histogram quantile = %v", 100*c.q, c.snap, want)
		}
	}
}

// TestLoadGenSustainsDiDiRate is the first throughput acceptance bar, set
// when the ingest path was one HTTP/JSON request per event: replaying a
// DiDi-scaled trace must sustain at least 1000 events per second, planning
// included. TestLoadGenStreamSustains25k holds the same replay to 25k.
func TestLoadGenSustainsDiDiRate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	if raceEnabled {
		t.Skip("wall-clock throughput floor is meaningless under the race detector")
	}
	cfg := workload.DiDi().Scaled(0.1)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	d := New(Config{
		Shards:    4,
		Grid:      sc.Grid,
		Step:      2,
		Now:       sc.T0,
		NewLadder: oneTier(greedyFactory()),
	})
	res := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
	if res.Events < 500 {
		t.Fatalf("trace too small to be meaningful: %d events", res.Events)
	}
	if res.AchievedRate < 1000 {
		t.Fatalf("achieved %.0f events/sec over %d events (%v wall), want ≥ 1000",
			res.AchievedRate, res.Events, res.Wall)
	}
	if res.Metrics.Assigned == 0 {
		t.Fatal("load run assigned nothing; harness is not exercising planning")
	}
}
