package datawa_test

import (
	"fmt"

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
// kilometre apart, two couriers and five orders at each — some 45,000
// candidate sequences, enough work for a planner to share out.
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

// ExampleConfig_parallelism plans the same instant serially and with up to
// four goroutines: plans are byte-identical at every parallelism level, only
// planning time changes. The planner fans out when the instant is large
// enough to pay for the goroutines — this one is; the two couriers of
// exampleWorkers are planned on the caller's goroutine at any setting.
func ExampleConfig_parallelism() {
	serial := datawa.New(datawa.Config{Parallelism: 1})
	parallel := datawa.New(datawa.Config{Parallelism: 4})

	workers, tasks := exampleCrowd()
	a := serial.Assign(workers, tasks, 0)
	b := parallel.Assign(workers, tasks, 0)

	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].Worker.ID == b[i].Worker.ID &&
			fmt.Sprint(a[i].Seq.IDs()) == fmt.Sprint(b[i].Seq.IDs())
	}
	fmt.Println("couriers with work:", len(a))
	fmt.Println("identical plans:", same)
	// Output:
	// couriers with work: 1800
	// identical plans: true
}
