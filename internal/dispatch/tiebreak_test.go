package dispatch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Equal-timestamp tie-breaking audit. Scenario traces order events by
// (time, workers-before-tasks, id) — workload.Scenario.Events — and the
// dispatcher's pending buffer replays them in (time, ingest order). Both must
// agree with the engine's per-step batching (all due workers, then all due
// tasks, each in (time, id) order via core.SortWorkersByOn/SortTasksByPub)
// or coarse-scale traces with colliding timestamps replay differently live
// than offline. These tests pin that agreement byte-for-byte.

// tieScenario packs worker-online and task-submit collisions onto the same
// instants, including ids deliberately out of insertion order, and one
// worker/task pair colliding exactly on an epoch boundary.
func tieScenario() *workload.Scenario {
	mk := func(id int, x, y, pub float64) *core.Task {
		return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: pub + 40}
	}
	w := func(id int, x, y, on float64) *core.Worker {
		return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: 1.5, On: on, Off: on + 300}
	}
	sc := &workload.Scenario{
		Config: workload.Config{Name: "ties", Seed: 1},
		Grid:   geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 2, 2),
		// Insertion order is scrambled on purpose: the generators sort by
		// (time, id), and Events() must land on the same order.
		Workers: []*core.Worker{
			w(7, 1, 1, 4), w(3, 3, 3, 4), // two workers at the same instant
			w(9, 2, 2, 8), // worker exactly on an epoch boundary
			w(1, 0.5, 0.5, 0),
		},
		Tasks: []*core.Task{
			mk(12, 1.1, 1.1, 4), mk(5, 3.1, 3.1, 4), // tasks colliding with the t=4 workers
			mk(20, 2.1, 2.1, 8), // task tied with worker 9 on the boundary
			mk(2, 0.6, 0.6, 2),
		},
		T0: 0, T1: 20,
	}
	core.SortWorkersByOn(sc.Workers)
	core.SortTasksByPub(sc.Tasks)
	return sc
}

// TestEventsTieBreakWorkersBeforeTasks pins the trace-export order on
// colliding timestamps: workers precede tasks, ids ascend within a kind.
func TestEventsTieBreakWorkersBeforeTasks(t *testing.T) {
	evs := tieScenario().Events()
	type key struct {
		time float64
		kind workload.EventKind
		id   int
	}
	want := []key{
		{0, workload.WorkerOnline, 1},
		{2, workload.TaskSubmit, 2},
		{4, workload.WorkerOnline, 3},
		{4, workload.WorkerOnline, 7},
		{4, workload.TaskSubmit, 5},
		{4, workload.TaskSubmit, 12},
		{8, workload.WorkerOnline, 9},
		{8, workload.TaskSubmit, 20},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		id := 0
		if ev.Kind == workload.WorkerOnline {
			id = ev.Worker.ID
		} else {
			id = ev.Task.ID
		}
		if ev.Time != want[i].time || ev.Kind != want[i].kind || id != want[i].id {
			t.Fatalf("event %d = (%v, %v, id %d), want (%v, %v, id %d)",
				i, ev.Time, ev.Kind, id, want[i].time, want[i].kind, want[i].id)
		}
	}
}

// TestTiedTimestampReplayMatchesEngine replays the collision trace through
// the dispatcher — per event (the test-local Ingest replay) and through
// LoadGen's binary-stream transport — and requires the engine's exact outcome
// at every configuration. This is what keeps suite runs byte-deterministic
// when coarse scales collide worker-on and task-submit instants.
func TestTiedTimestampReplayMatchesEngine(t *testing.T) {
	sc := tieScenario()
	const step = 4 // coarse epochs: every collision shares a planning instant
	ref := stream.Run(
		stream.Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1},
		stream.Config{Planner: checked{searchFactory()(0)}, Step: step},
	)
	for _, cfg := range []struct {
		name     string
		streamed bool
		shards   int
		grain    int
	}{
		{"direct", false, 1, neverFan},
		{"streamed", true, 1, neverFan},
		{"sharded parallel", false, 2, 0},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			d := withGrain(New(Config{
				Shards: cfg.shards, Grid: sc.Grid, Step: step, Now: sc.T0,
				NewLadder: oneTier(searchFactory()),
			}), cfg.grain)
			var m Metrics
			if cfg.streamed {
				m = LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d).Metrics
			} else {
				m = replayEach(d, sc.Events(), sc.T1, ingestEach)
			}
			if cfg.shards == 1 {
				if m.Assigned != ref.Assigned || m.Expired != ref.Expired {
					t.Fatalf("assigned/expired = %d/%d, engine = %d/%d",
						m.Assigned, m.Expired, ref.Assigned, ref.Expired)
				}
			}
			// At any shard count, LoadGen stepping inline must agree exactly.
			d2 := withGrain(New(Config{
				Shards: cfg.shards, Grid: sc.Grid, Step: step, Now: sc.T0,
				NewLadder: oneTier(searchFactory()),
			}), neverFan)
			m2 := LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d2).Metrics
			if m.Assigned != m2.Assigned || m.Expired != m2.Expired || m.Applied != m2.Applied {
				t.Fatalf("replay diverges across transport/fan-out settings: %d/%d/%d vs %d/%d/%d",
					m.Assigned, m.Expired, m.Applied, m2.Assigned, m2.Expired, m2.Applied)
			}
		})
	}
}
