package datawa_test

import (
	"fmt"
	"runtime"

	"repro"
)

// exampleWorkers returns two couriers in a 2×2 km downtown.
func exampleWorkers() []*datawa.Worker {
	return []*datawa.Worker{
		{ID: 1, Loc: datawa.Point{X: 0.2, Y: 0.2}, Reach: 1.5, On: 0, Off: 1800},
		{ID: 2, Loc: datawa.Point{X: 1.8, Y: 1.8}, Reach: 1.5, On: 0, Off: 1800},
	}
}

// exampleTasks returns a small task stream over the first minutes.
func exampleTasks() []*datawa.Task {
	return []*datawa.Task{
		{ID: 1, Loc: datawa.Point{X: 0.5, Y: 0.3}, Pub: 0, Exp: 300},
		{ID: 2, Loc: datawa.Point{X: 0.9, Y: 0.6}, Pub: 0, Exp: 400},
		{ID: 3, Loc: datawa.Point{X: 1.6, Y: 1.5}, Pub: 0, Exp: 300},
		{ID: 4, Loc: datawa.Point{X: 1.2, Y: 1.9}, Pub: 60, Exp: 500},
	}
}

// ExampleFramework_Assign plans one assignment instant — the Task Planning
// Assignment of Algorithm 4 — without any trained models (exact DFSearch).
func ExampleFramework_Assign() {
	fw := datawa.New(datawa.Config{
		Region:   datawa.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2},
		GridRows: 2, GridCols: 2,
	})
	plan := fw.Assign(exampleWorkers(), exampleTasks(), 0)
	for _, a := range plan {
		fmt.Printf("worker %d -> tasks %v\n", a.Worker.ID, a.Seq.IDs())
	}
	fmt.Printf("assigned %d tasks\n", plan.RealSize())
	// Output:
	// worker 1 -> tasks [1 2]
	// worker 2 -> tasks [3 4]
	// assigned 4 tasks
}

// ExampleFramework_Run streams a scenario end to end with dynamic task
// adjustment (Algorithm 3), the DTA method of Section V-B.2.
func ExampleFramework_Run() {
	fw := datawa.New(datawa.Config{
		Region:   datawa.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2},
		GridRows: 2, GridCols: 2,
	})
	res, err := fw.Run(datawa.MethodDTA, exampleWorkers(), exampleTasks(), 0, 600)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("assigned %d of %d tasks, %d expired\n",
		res.Assigned, len(exampleTasks()), res.Expired)
	// Output:
	// assigned 4 of 4 tasks, 0 expired
}

// ExampleFramework_TrainDemand fits the DDGNN demand model on a generated
// history trace and reports readiness; with a trained demand model the
// prediction-driven methods (DTA+TP, DATA-WA) become available.
func ExampleFramework_TrainDemand() {
	cfg := datawa.YuecheScenario().Scaled(0.05)
	sc := datawa.GenerateScenario(cfg)

	fw := datawa.New(datawa.Config{
		Region:   cfg.Region,
		GridRows: 3, GridCols: 3,
		Epochs: 2, Window: 3, // demo-sized training run
	})
	if err := fw.TrainDemand(sc.History); err != nil {
		fmt.Println("train:", err)
		return
	}
	fmt.Println("demand model trained:", fw.HasDemandModel())
	// Output:
	// demand model trained: true
}

// exampleCrowd returns one busy instant of a whole city: 900 street corners a
// kilometre apart, two couriers and five orders at each.
func exampleCrowd() ([]*datawa.Worker, []*datawa.Task) {
	var workers []*datawa.Worker
	var tasks []*datawa.Task
	for c := 0; c < 900; c++ {
		x, y := float64(c%30), float64(c/30)
		for k := 0; k < 2; k++ {
			workers = append(workers, &datawa.Worker{
				ID: 2*c + k + 1, Loc: datawa.Point{X: x + 0.1*float64(k), Y: y}, Reach: 0.4, On: 0, Off: 1800,
			})
		}
		for k := 0; k < 5; k++ {
			tasks = append(tasks, &datawa.Task{
				ID: 5*c + k + 1, Loc: datawa.Point{X: x + 0.05*float64(k), Y: y + 0.03*float64(k*k%7)},
				Pub: 0, Exp: 200 + 40*float64(k),
			})
		}
	}
	return workers, tasks
}

// ExampleConfig_parallelism replays the same busy instant through a
// four-shard live dispatcher twice: at GOMAXPROCS 1, with its shards stepped
// one after the other, and at GOMAXPROCS 4, with up to four stepped at once.
// GOMAXPROCS bounds that shard fan-out and nothing else — each shard's
// planner plans its instant on the goroutine that steps the shard — and the
// outcome is byte-identical at every setting; only wall time changes. The
// shards of an epoch take goroutines of their own only when their previous
// Steps overlap by enough to pay for them.
func ExampleConfig_parallelism() {
	workers, tasks := exampleCrowd()
	replay := func(procs int) datawa.DispatchMetrics {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fw := datawa.New(datawa.Config{
			Region:   datawa.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30},
			GridRows: 6, GridCols: 6,
		})
		d, err := fw.NewDispatcher(datawa.MethodDTA, datawa.DispatchConfig{Shards: 4})
		if err != nil {
			panic(err)
		}
		for _, w := range workers {
			d.Ingest(datawa.WorkerOnlineEvent(w))
		}
		for _, s := range tasks {
			d.Ingest(datawa.TaskSubmitEvent(s))
		}
		d.Advance(3)
		return d.Snapshot()
	}
	serial, parallel := replay(1), replay(4)

	fmt.Println("assigned:", serial.Assigned)
	fmt.Println("identical outcomes:", serial.Assigned == parallel.Assigned &&
		serial.Expired == parallel.Expired && serial.GhostCopies == parallel.GhostCopies &&
		serial.CommitConflicts == parallel.CommitConflicts)
	// Output:
	// assigned: 2700
	// identical outcomes: true
}
