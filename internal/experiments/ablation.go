package experiments

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The ablation experiments quantify four design decisions: the learned
// dynamic adjacency, the TVF versus exact search, the RTC tree versus flat
// component search, and the sequence-length cap.

func init() {
	register(Experiment{
		ID:    "ablation-adjacency",
		Title: "DDGNN dynamic adjacency vs identity propagation",
		Run:   runAdjacencyAblation,
	})
	register(Experiment{
		ID:    "ablation-tvf",
		Title: "Exact DFSearch vs DFSearch_TVF: quality and search effort",
		Run:   runTVFAblation,
	})
	register(Experiment{
		ID:    "ablation-flat",
		Title: "RTC tree search vs flat component search",
		Run:   runFlatAblation,
	})
	register(Experiment{
		ID:    "ablation-seqlen",
		Title: "Effect of the maximal sequence length cap",
		Run:   runSeqLenAblation,
	})
	register(Experiment{
		ID:    "ablation-breaks",
		Title: "Dynamic worker availability windows (unplanned breaks)",
		Run:   runBreaksAblation,
	})
}

func runAdjacencyAblation(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-adjacency",
		Title:  "Average precision with and without the Demand Dependency Learning module",
		Header: []string{"dataset", "model", "AP"},
	}
	for _, base := range []workload.Config{workload.Yueche(), workload.DiDi()} {
		sc := workload.Generate(scaledConfig(base, s))
		for _, name := range []string{"DDGNN", "DDGNN-static"} {
			res, _ := trainEval(name, sc, DeltaTValues[0], s, base.Seed)
			t.Add(base.Name, name, fmtF(res.AP))
		}
	}
	return []*Table{t}
}

func runTVFAblation(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-tvf",
		Title:  "Backtracking exact search vs value-function search",
		Header: []string{"dataset", "solver", "assigned", "cpu_per_instant", "nodes_last_plan"},
	}
	sc := workload.Generate(scaledConfig(workload.Yueche(), s))
	valueFn := trainTVF(sc, nil, s)

	exact := &assign.Search{Opts: assignOptions(s)}
	resExact := run(sc, stream.Config{Planner: exact}, s)
	t.Add("Yueche", "DFSearch", fmt.Sprintf("%d", resExact.Assigned),
		fmtDuration(resExact.AvgPlanTime), fmt.Sprintf("%d", exact.NodesLastPlan))

	fast := &assign.Search{Opts: assignOptions(s), Model: valueFn}
	resFast := run(sc, stream.Config{Planner: fast}, s)
	t.Add("Yueche", "DFSearch_TVF", fmt.Sprintf("%d", resFast.Assigned),
		fmtDuration(resFast.AvgPlanTime), fmt.Sprintf("%d", fast.NodesLastPlan))
	return []*Table{t}
}

func runFlatAblation(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-flat",
		Title:  "Worker dependency separation: tree vs flat",
		Header: []string{"dataset", "mode", "assigned", "cpu_per_instant"},
	}
	sc := workload.Generate(scaledConfig(workload.Yueche(), s))
	resTree := run(sc, stream.Config{Planner: &assign.Search{Opts: assignOptions(s)}}, s)
	t.Add("Yueche", "rtc-tree", fmt.Sprintf("%d", resTree.Assigned), fmtDuration(resTree.AvgPlanTime))

	flatOpts := assignOptions(s)
	flatOpts.Flat = true
	resFlat := run(sc, stream.Config{Planner: &assign.Search{Opts: flatOpts}}, s)
	t.Add("Yueche", "flat", fmt.Sprintf("%d", resFlat.Assigned), fmtDuration(resFlat.AvgPlanTime))
	return []*Table{t}
}

func runSeqLenAblation(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-seqlen",
		Title:  "Maximal valid sequence length cap",
		Header: []string{"dataset", "max_seq_len", "assigned", "cpu_per_instant"},
	}
	sc := workload.Generate(scaledConfig(workload.Yueche(), s))
	for _, l := range []int{1, 2, 3} {
		opts := assignOptions(s)
		opts.WDS.MaxSeqLen = l
		res := run(sc, stream.Config{Planner: &assign.Search{Opts: opts}}, s)
		t.Add("Yueche", fmt.Sprintf("%d", l), fmt.Sprintf("%d", res.Assigned), fmtDuration(res.AvgPlanTime))
	}
	return []*Table{t}
}

// runBreaksAblation exercises the paper's title feature: worker availability
// windows that change dynamically (breaks/shifts). Fixed plans should suffer
// most when windows fragment, since a departing worker strands its locked
// sequence; adaptive methods re-plan around the gap.
func runBreaksAblation(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-breaks",
		Title:  "Effect of availability-window fragmentation",
		Header: []string{"dataset", "break_prob", "method", "assigned", "cpu_per_instant"},
	}
	for _, prob := range []float64{0, 0.5} {
		cfg := scaledConfig(workload.Yueche(), s)
		cfg.BreakProb = prob
		cfg.BreakLength = cfg.WorkerAvail * 0.25
		sc := workload.Generate(cfg)
		for _, r := range RunMethods(sc, s) {
			t.Add("Yueche", fmt.Sprintf("%.1f", prob), r.Method,
				fmt.Sprintf("%d", r.Assigned), fmtDuration(r.AvgCPU))
		}
	}
	return []*Table{t}
}
