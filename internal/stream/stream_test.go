package stream

import (
	"fmt"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wds"
)

var travel = geo.NewTravelModel(0.01) // 10 m/s

func cfgWith(p assign.Planner) Config {
	return Config{Planner: checked{p}}
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

func searchPlanner() *assign.Search {
	return &assign.Search{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}
}

func task(id int, x, y, pub, exp float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: exp, Cell: -1}
}

func worker(id int, x, y, reach, on, off float64) *core.Worker {
	return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: on, Off: off}
}

func TestSingleWorkerServesSingleTask(t *testing.T) {
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000)},
		Tasks:   []*core.Task{task(1, 0.5, 0, 0, 200)},
		T0:      0, T1: 300,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 1 {
		t.Errorf("assigned = %d, want 1", res.Assigned)
	}
	if res.Expired != 0 {
		t.Errorf("expired = %d, want 0", res.Expired)
	}
	if res.PlanCalls == 0 || res.AvgPlanTime <= 0 {
		t.Error("planning time must be measured")
	}
}

func TestUnreachableTaskExpires(t *testing.T) {
	// 2 km away with a 1 km reach: never assignable.
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000)},
		Tasks:   []*core.Task{task(1, 2, 0, 0, 100)},
		T0:      0, T1: 200,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 0 {
		t.Errorf("assigned = %d, want 0", res.Assigned)
	}
	if res.Expired != 1 {
		t.Errorf("expired = %d, want 1", res.Expired)
	}
}

func TestWorkerOffTimeRespected(t *testing.T) {
	// Task published after the worker departs.
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 50)},
		Tasks:   []*core.Task{task(1, 0.1, 0, 60, 200)},
		T0:      0, T1: 300,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 0 {
		t.Errorf("assigned = %d, want 0 (worker gone)", res.Assigned)
	}
}

func TestWorkerServesSequenceInOrder(t *testing.T) {
	// Three tasks in a line, all long-lived: one worker serves all three.
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 2, 0, 5000)},
		Tasks: []*core.Task{
			task(1, 0.3, 0, 0, 5000),
			task(2, 0.6, 0, 0, 5000),
			task(3, 0.9, 0, 0, 5000),
		},
		T0: 0, T1: 1000,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 3 {
		t.Errorf("assigned = %d, want 3", res.Assigned)
	}
}

func TestGreedyPlannerRunsInStream(t *testing.T) {
	g := &assign.Greedy{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000), worker(2, 1, 0, 1, 0, 1000)},
		Tasks: []*core.Task{
			task(1, 0.2, 0, 0, 500),
			task(2, 0.8, 0, 0, 500),
		},
		T0: 0, T1: 600,
	}
	res := Run(in, cfgWith(g))
	if res.Assigned != 2 {
		t.Errorf("assigned = %d, want 2", res.Assigned)
	}
}

func TestDTAReplansTailFTADoesNot(t *testing.T) {
	// Worker plans (A, D) at t=0. While executing A, tasks B and C appear
	// next to A. DTA replans after finishing A and serves B, C, D; FTA is
	// locked on (A, D) and loses B and C.
	mk := func() Input {
		return Input{
			Workers: []*core.Worker{worker(1, 0, 0, 5, 0, 1e5)},
			Tasks: []*core.Task{
				task(1, 1, 0, 0, 1e5),    // A: 100 s away
				task(4, 2, 0, 0, 1e5),    // D: far
				task(2, 1.1, 0, 50, 250), // B: appears mid-travel
				task(3, 1.2, 0, 50, 250), // C
			},
			T0: 0, T1: 500,
		}
	}
	dta := Run(mk(), cfgWith(searchPlanner()))
	ftaCfg := cfgWith(searchPlanner())
	ftaCfg.Fixed = true
	fta := Run(mk(), ftaCfg)

	if dta.Assigned != 4 {
		t.Errorf("DTA assigned = %d, want 4", dta.Assigned)
	}
	if fta.Assigned != 2 {
		t.Errorf("FTA assigned = %d, want 2", fta.Assigned)
	}
}

// stubForecaster predicts a fixed set of tasks from a given time onward.
type stubForecaster struct {
	tasks []*core.Task
	span  float64
}

func (s *stubForecaster) Virtuals(_ []*core.Task, now float64) []*core.Task {
	var out []*core.Task
	for _, v := range s.tasks {
		if v.Exp > now {
			out = append(out, v)
		}
	}
	return out
}

func (s *stubForecaster) Span() float64        { return s.span }
func (s *stubForecaster) HistorySpan() float64 { return s.span }

func TestPredictionEnablesRepositioning(t *testing.T) {
	// A short-lived task appears at t=100 at (0.9, 0). From the origin the
	// worker needs 90 s — too slow once it is published (expires at 130).
	// With a forecaster announcing the location in advance, the worker
	// repositions early and serves it.
	mk := func() Input {
		return Input{
			Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000)},
			Tasks:   []*core.Task{task(1, 0.9, 0, 100, 130)},
			T0:      0, T1: 300,
		}
	}
	// Without prediction: unreachable in time.
	plain := Run(mk(), cfgWith(searchPlanner()))
	if plain.Assigned != 0 {
		t.Fatalf("without prediction assigned = %d, want 0", plain.Assigned)
	}

	v := task(-1, 0.9, 0, 100, 130)
	v.Virtual = true
	cfg := cfgWith(searchPlanner())
	cfg.Demand = NewDemandFeed(&stubForecaster{tasks: []*core.Task{v}, span: 30}, nil)
	predicted := Run(mk(), cfg)
	if predicted.Assigned != 1 {
		t.Errorf("with prediction assigned = %d, want 1", predicted.Assigned)
	}
	if predicted.Repositions == 0 {
		t.Error("expected at least one reposition")
	}
}

func TestVirtualTasksNeverCounted(t *testing.T) {
	// Only virtual demand, no real tasks: assigned must stay 0.
	v := task(-1, 0.5, 0, 0, 500)
	v.Virtual = true
	cfg := cfgWith(searchPlanner())
	cfg.Demand = NewDemandFeed(&stubForecaster{tasks: []*core.Task{v}, span: 50}, nil)
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000)},
		T0:      0, T1: 300,
	}
	res := Run(in, cfg)
	if res.Assigned != 0 {
		t.Errorf("assigned = %d, want 0 (virtual only)", res.Assigned)
	}
}

func TestEngineDoesNotMutateInputs(t *testing.T) {
	w := worker(1, 0, 0, 1, 0, 1000)
	in := Input{
		Workers: []*core.Worker{w},
		Tasks:   []*core.Task{task(1, 0.5, 0, 0, 500)},
		T0:      0, T1: 600,
	}
	Run(in, cfgWith(searchPlanner()))
	if w.Loc.X != 0 || w.Loc.Y != 0 {
		t.Error("input worker mutated")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() Input {
		var ws []*core.Worker
		var ts []*core.Task
		for i := 0; i < 5; i++ {
			ws = append(ws, worker(i+1, float64(i)*0.3, 0, 1, float64(i*10), 800))
		}
		for i := 0; i < 12; i++ {
			ts = append(ts, task(i+1, float64(i%4)*0.3, 0.2, float64(i*20), float64(i*20)+120))
		}
		return Input{Workers: ws, Tasks: ts, T0: 0, T1: 500}
	}
	a := Run(mk(), cfgWith(searchPlanner()))
	b := Run(mk(), cfgWith(searchPlanner()))
	if a.Assigned != b.Assigned || a.Expired != b.Expired {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestAssignedPlusExpiredCoversTasks(t *testing.T) {
	// Conservation: every real task either gets assigned or expires
	// (within the horizon, with horizon > all expirations).
	var ws []*core.Worker
	var ts []*core.Task
	for i := 0; i < 4; i++ {
		ws = append(ws, worker(i+1, float64(i)*0.5, 0, 1, 0, 900))
	}
	for i := 0; i < 10; i++ {
		ts = append(ts, task(i+1, float64(i%5)*0.25, 0.1, float64(i*15), float64(i*15)+100))
	}
	in := Input{Workers: ws, Tasks: ts, T0: 0, T1: 600}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned+res.Expired != len(ts) {
		t.Errorf("assigned %d + expired %d != %d tasks", res.Assigned, res.Expired, len(ts))
	}
}

func TestStepConfig(t *testing.T) {
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 500)},
		Tasks:   []*core.Task{task(1, 0.2, 0, 0, 300)},
		T0:      0, T1: 400,
	}
	cfg := cfgWith(searchPlanner())
	cfg.Step = 5
	res := Run(in, cfg)
	if res.Assigned != 1 {
		t.Errorf("assigned = %d with coarse step", res.Assigned)
	}
	// Larger steps mean fewer planning calls.
	cfg2 := cfgWith(searchPlanner())
	cfg2.Step = 1
	res2 := Run(in, cfg2)
	if res.PlanCalls >= res2.PlanCalls {
		t.Errorf("coarse step should plan less: %d vs %d", res.PlanCalls, res2.PlanCalls)
	}
}

func TestLateArrivingWorkerServes(t *testing.T) {
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 100, 1000)},
		Tasks:   []*core.Task{task(1, 0.1, 0, 0, 400)},
		T0:      0, T1: 500,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 1 {
		t.Errorf("assigned = %d, want 1 (worker arrives at 100)", res.Assigned)
	}
}
