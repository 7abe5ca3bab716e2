// Command datawa-sim runs one spatial-crowdsourcing stream simulation with a
// chosen assignment method and prints the outcome: assigned tasks, expired
// tasks, and the average planning cost per time instant.
//
// Usage:
//
//	datawa-sim -dataset yueche -method DATA-WA -scale 0.15
//	datawa-sim -dataset didi -method Greedy
//	datawa-sim -scenario rush-hour -method DTA -scale 1
//	datawa-sim -scenarios
//
// -dataset picks one of the paper's two trace analogues, where -scale is the
// shrink factor in (0,1] (cardinalities and clock scale together). -scenario
// picks a scenario-atlas archetype instead (docs/SCENARIOS.md), where -scale
// is the atlas density multiplier: any positive value, 1 is the archetype's
// base size and values above 1 raise the arrival rate on a fixed clock.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		dataset  = flag.String("dataset", "yueche", "yueche | didi")
		scen     = flag.String("scenario", "", "scenario-atlas archetype (overrides -dataset; see -scenarios)")
		listScen = flag.Bool("scenarios", false, "list scenario-atlas archetypes and exit")
		method   = flag.String("method", "DATA-WA", "one of "+datawa.MethodList())
		scale    = flag.Float64("scale", 0.15, "dataset shrink factor in (0,1], or atlas density multiplier with -scenario")
		step     = flag.Float64("step", 2, "replan interval in seconds")
		seed     = flag.Int64("seed", 1, "deterministic seed")
	)
	flag.Parse()

	if *listScen {
		fmt.Println("scenario atlas:")
		for _, a := range datawa.Archetypes() {
			fmt.Printf("  %-14s %s\n", a.Name, a.Summary)
		}
		return
	}

	var cfg datawa.ScenarioConfig
	if *scen != "" {
		a, ok := datawa.ArchetypeByName(*scen)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (use -scenarios)\n", *scen)
			os.Exit(2)
		}
		// Atlas mode reinterprets two defaults: -scale falls back to the
		// archetype's base density 1 (0.15 is the dataset shrink default),
		// and the archetype's own seed (the suite's reproducibility anchor)
		// stands unless -seed was given explicitly.
		given := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["scale"] {
			*scale = 1
		}
		cfg = a.Scale(*scale)
		if !given["seed"] {
			*seed = cfg.Seed
		}
	} else {
		switch strings.ToLower(*dataset) {
		case "yueche":
			cfg = datawa.YuecheScenario()
		case "didi":
			cfg = datawa.DiDiScenario()
		default:
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		cfg = cfg.Scaled(*scale)
	}
	cfg.Seed = *seed
	sc := datawa.GenerateScenario(cfg)
	fmt.Printf("scenario %s: %d workers, %d tasks over %.0f s (+%.0f s history)\n",
		cfg.Name, len(sc.Workers), len(sc.Tasks), cfg.Duration, cfg.HistoryDuration)

	fw := datawa.New(datawa.Config{
		Region:   cfg.Region,
		GridRows: cfg.GridRows, GridCols: cfg.GridCols,
		Step: *step, Seed: *seed,
	})

	m := datawa.Method(*method)
	if m.NeedsDemand() {
		fmt.Println("training demand model on history ...")
		if err := fw.TrainDemand(sc.History); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if m.NeedsValue() {
		fmt.Println("training task value function ...")
		if err := fw.TrainValue(sc.Workers, sc.Tasks, 8); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res, err := fw.Run(m, sc.Workers, sc.Tasks, sc.T0, sc.T1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("method          %s\n", m)
	fmt.Printf("assigned tasks  %d / %d (%.1f%%)\n", res.Assigned, len(sc.Tasks),
		100*float64(res.Assigned)/float64(len(sc.Tasks)))
	fmt.Printf("expired tasks   %d\n", res.Expired)
	fmt.Printf("plan instants   %d\n", res.PlanCalls)
	fmt.Printf("cpu / instant   %v\n", res.AvgPlanTime)
	fmt.Printf("repositions     %d\n", res.Repositions)
}
