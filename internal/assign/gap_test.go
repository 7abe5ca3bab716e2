package assign

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/tvf"
)

// TestOptimumGap is docs/PLANNERS.md's gap table: over the atlas components
// the optimum oracle solves, each planner's gap to the optimum OPT, split as
// OPT − P = (OPT₈ − P) + (OPT − OPT₈), where OPT₈ is the optimum over each
// worker's 8 nearest tasks (wds.Options.MaxReachable): the planner's own gap
// at the cap, and the gap the cap adds. SSP's scenario-0 plan is the plan a
// Search at SSP's budget returns on scenario 0's pool alone
// (TestSSPSharedPassMatchesPerScenarioSearchAcrossParallelism), measured on
// the instants with a scenario-tagged virtual beside every third task. Run
// with -v to print the table. It checks what must hold: no planner plans more
// than OPT, and no search, whose reachable sets are the capped ones, more than
// OPT₈.
func TestOptimumGap(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every small atlas component twice")
	}
	a, _ := scenario.Get("clock-skew")
	crowd := atlasInstantsOf(a, 1)[0]
	train := opts()
	train.MaxNodes = 4000
	model := tvf.NewModel(16, 7)
	model.Train(CollectSamples(crowd.workers, crowd.tasks, crowd.now, train), tvf.TrainConfig{Epochs: 5, Seed: 7})

	plain := atlasComponents()
	var tagged []instant
	for _, a := range scenario.Registry() {
		for _, scale := range []float64{1, 5} {
			for _, in := range atlasInstantsOf(a, scale) {
				in = tagEveryThird(in, 5, 11)
				in.name, in.tasks = fmt.Sprintf("%s/%gx/scenario-0", in.name, scale), scenarioPool(in.tasks, 0)
				tagged = append(tagged, components(in, opts().WithDefaults().WDS.Travel, 8, 20)...)
			}
		}
	}
	budgeted := opts()
	budgeted.MaxNodes = 4000
	t.Logf("| planner | components | OPT | OPT₈ | planned | own gap (OPT₈ − P) | cap gap (OPT − OPT₈) | gap to OPT |")
	t.Logf("|---|---|---|---|---|---|---|---|")
	for _, row := range []struct {
		name   string
		p      Planner
		comps  []instant
		search bool
	}{
		{"Greedy", &Greedy{Opts: opts()}, plain, false},
		{"Search{MaxNodes: 4000}", &Search{Opts: budgeted}, plain, true},
		{"Search (default, MaxNodes 20000)", &Search{Opts: opts()}, plain, true},
		{"Search(TVF)", &Search{Opts: opts(), Model: model}, plain, true},
		{"SSP, scenario 0", &Search{Opts: opts()}, tagged, true},
	} {
		var opt, opt8, got float64
		for _, c := range row.comps {
			o := opts().WithDefaults()
			best, best8 := optimum(c.workers, c.tasks, c.now, o, false), optimum(c.workers, c.tasks, c.now, o, true)
			v := planWorth(checked{row.p}.Plan(c.workers, c.tasks, c.now), o.VirtualWeight)
			if v > best+1e-9 || row.search && v > best8+1e-9 {
				t.Errorf("%s on %s: %v planned, optimum %v, %v at the cap", row.name, c.name, v, best, best8)
			}
			opt, opt8, got = opt+best, opt8+best8, got+v
		}
		pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v/opt) }
		t.Logf("| %s | %d | %.2f | %.2f | %.2f | %s | %s | %s |", row.name, len(row.comps), opt, opt8, got, pct(opt8-got), pct(opt-opt8), pct(opt-got))
	}
}
