package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	datawa "repro"
	"repro/internal/method"
	"repro/internal/predict"
	"repro/internal/workload"
)

// tiny returns the fastest possible scale for integration tests.
func tiny() Scale {
	s := Quick
	s.SweepPoints = 1
	return s
}

func TestRegistryComplete(t *testing.T) {
	// Every table/figure of the paper's evaluation plus the four design
	// ablations must be registered.
	want := []string{
		"table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"ablation-adjacency", "ablation-tvf", "ablation-flat", "ablation-seqlen",
		"ablation-breaks",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// All() is sorted.
	ids := All()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].ID >= ids[i].ID {
			t.Error("All() not sorted by id")
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID of unknown id should fail")
	}
}

func TestTable2Experiment(t *testing.T) {
	e, _ := ByID("table2")
	tables := e.Run(tiny())
	if len(tables) != 1 {
		t.Fatalf("table2 produced %d tables", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("table2 has %d rows, want 2 datasets", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Yueche" || tab.Rows[1][0] != "DiDi" {
		t.Errorf("dataset names: %v, %v", tab.Rows[0][0], tab.Rows[1][0])
	}
	// Render paths.
	if !strings.Contains(tab.String(), "Yueche") {
		t.Error("String() missing data")
	}
	if !strings.Contains(tab.CSV(), "dataset,workers") {
		t.Error("CSV() missing header")
	}
}

func TestAssignmentSweepShapes(t *testing.T) {
	e, _ := ByID("fig9")
	tables := e.Run(tiny())
	if len(tables) != 2 {
		t.Fatalf("fig9 produced %d tables, want one per dataset", len(tables))
	}
	for _, tab := range tables {
		// One sweep point × every registered method.
		got := make([]string, len(tab.Rows))
		for i, row := range tab.Rows {
			got[i] = row[1]
		}
		checkLibraryOrder(t, tab.Title, got)
	}
}

// checkLibraryOrder fails unless methods lists the library's methods, in
// datawa.Methods() order: the figures and the library read one registry.
func checkLibraryOrder(t *testing.T, what string, methods []string) {
	t.Helper()
	want := datawa.Methods()
	if len(methods) != len(want) {
		t.Fatalf("%s: %d methods %v, the library has %d %v", what, len(methods), methods, len(want), want)
	}
	for i, m := range methods {
		if m != string(want[i]) {
			t.Errorf("%s: method %d is %s, the library's is %s", what, i, m, want[i])
		}
	}
}

func TestPredictionFigureShapes(t *testing.T) {
	e, _ := ByID("fig5")
	tables := e.Run(tiny())
	if len(tables) != 1 {
		t.Fatalf("fig5 produced %d tables", len(tables))
	}
	tab := tables[0]
	// One sweep point × three models.
	if len(tab.Rows) != len(PredictorNames) {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "" || row[2] == "NaN" {
			t.Errorf("AP cell empty: %v", row)
		}
	}
}

func TestRunMethodsOrderAndSanity(t *testing.T) {
	s := tiny()
	sc := workload.Generate(scaledConfig(workload.Yueche(), s))
	results := RunMethods(sc, s)
	names := make([]string, len(results))
	for i, r := range results {
		names[i] = r.Method
	}
	checkLibraryOrder(t, "RunMethods", names)
	for _, r := range results {
		if r.Assigned < 0 || r.Assigned > len(sc.Tasks) {
			t.Errorf("%s assigned %d of %d tasks", r.Method, r.Assigned, len(sc.Tasks))
		}
	}
	// Greedy must be the cheapest planner (it does no tree search).
	for _, r := range results[1:] {
		if results[0].AvgCPU > r.AvgCPU {
			t.Logf("note: Greedy CPU %v above %s CPU %v (tiny scale noise)", results[0].AvgCPU, r.Method, r.AvgCPU)
		}
	}
}

// TestRunMethodsPinned hashes (dataset, method, assigned, repositions) of
// RunMethods on tiny Yueche and DiDi scenarios. paperFive covers the paper's
// five methods and was recorded before they came from the method registry;
// all covers every row, SSP included.
func TestRunMethodsPinned(t *testing.T) {
	const paperFive, all = 0xa376b39f9a327e99, 0x62a7b2976a20b69b
	s := tiny()
	paper, every := fnv.New64a(), fnv.New64a()
	for _, base := range []workload.Config{workload.Yueche(), workload.DiDi()} {
		sc := workload.Generate(scaledConfig(base, s))
		for _, r := range RunMethods(sc, s) {
			line := fmt.Sprintf("%s|%s|%d|%d\n", base.Name, r.Method, r.Assigned, r.Repositions)
			t.Log(strings.TrimSpace(line))
			if r.Method != method.SSP {
				paper.Write([]byte(line))
			}
			every.Write([]byte(line))
		}
	}
	if got := paper.Sum64(); got != paperFive {
		t.Errorf("paper's five methods hash %#x, pinned %#x", got, uint64(paperFive))
	}
	if got := every.Sum64(); got != all {
		t.Errorf("all methods hash %#x, pinned %#x", got, uint64(all))
	}
}

// TestPredictionPanelForecastsAtItsFitHorizon holds fig5/fig6 panel (b) to
// the horizon its model was fit at, for each of the three predictors. Which
// horizon trainEval fits at is read off the model itself: a fresh model of the
// same kind is fit at horizons 1 and 2, and the one whose forecast equals
// trainEval's, bit for bit, names it. Panel (b)'s count must then be the
// DTA+TP row's forecasting at that horizon. (At this scale Graph-WaveNet's row
// is the one that tells the horizons apart: 37 tasks at 1, 36 at 2.)
func TestPredictionPanelForecastsAtItsFitHorizon(t *testing.T) {
	s, base := tiny(), workload.Yueche()
	sc := workload.Generate(scaledConfig(base, s))
	deltaT := DeltaTValues[0]
	series := predict.BuildSeries(sc.SeriesConfig(SeriesK, deltaT), sc.History, 0)
	probe := series.Windows(s.Window, 1)[0].Inputs
	for _, name := range PredictorNames {
		_, model := trainEval(name, sc, deltaT, s, base.Seed)
		want := model.Predict(probe)
		fitAt := 0
		for h := 1; h <= 2; h++ {
			train, _ := predict.SplitWindows(series.WindowsAhead(s.Window, 1, h), 0.8)
			twin := newPredictor(name, sc.Grid.Cells(), s, base.Seed)
			twin.Fit(train)
			if slices.EqualFunc(twin.Predict(probe).Data, want.Data, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				fitAt = h
			}
		}
		if fitAt == 0 {
			t.Fatalf("%s: trainEval's model equals no fit at horizon 1 or 2", name)
		}
		env := methodEnv(sc, model, deltaT, s)
		env.Horizon = fitAt
		atFit := runRow(sc, method.Lookup(method.DTATP), env, s).Assigned
		if got := runWithForecaster(sc, model, deltaT, s); got != atFit {
			t.Errorf("%s: panel (b) assigned %d; DTA+TP forecasting at the fit horizon %d assigns %d", name, got, fitAt, atFit)
		}
	}
}

func TestSweepTrimming(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	s := Scale{SweepPoints: 2}
	got := s.sweep(vals)
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("sweep(2) = %v", got)
	}
	s.SweepPoints = 1
	if got := s.sweep(vals); len(got) != 1 || got[0] != 1 {
		t.Errorf("sweep(1) = %v", got)
	}
	s.SweepPoints = 0
	if got := s.sweep(vals); len(got) != 5 {
		t.Errorf("sweep(0) = %v", got)
	}
	s.SweepPoints = 9
	if got := s.sweep(vals); len(got) != 5 {
		t.Errorf("sweep(9) = %v", got)
	}
}

func TestScaledConfigBoostsHistory(t *testing.T) {
	s := Scale{Factor: 0.05}
	base := workload.Yueche()
	c := scaledConfig(base, s)
	if c.HistoryDuration <= base.HistoryDuration*0.05+1 {
		t.Errorf("history %v not boosted", c.HistoryDuration)
	}
	if c.HistoryDuration > base.HistoryDuration {
		t.Errorf("history %v exceeds full duration", c.HistoryDuration)
	}
}
