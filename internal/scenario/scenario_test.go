package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/dispatch"
	"repro/internal/geo"
	"repro/internal/wds"
	"repro/internal/workload"
)

func TestRegistryCoversRequiredArchetypes(t *testing.T) {
	required := []string{
		"yueche", "didi",
		"rush-hour", "event-spike", "sparse-suburb", "courier-grid", "multi-city",
	}
	for _, name := range required {
		if _, ok := Get(name); !ok {
			t.Errorf("atlas is missing archetype %q", name)
		}
	}
	if len(Registry()) < len(required) {
		t.Errorf("atlas has %d archetypes, want at least %d", len(Registry()), len(required))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("no-such-regime"); ok {
		t.Fatal("Get returned an unregistered archetype")
	}
}

// traceBytes encodes a scenario's full event trace so runs can be compared
// byte for byte.
func traceBytes(sc *workload.Scenario) string {
	var b strings.Builder
	for _, ev := range sc.Events() {
		switch ev.Kind {
		case workload.WorkerOnline:
			w := ev.Worker
			fmt.Fprintf(&b, "w %d %v %v %v %v %v\n", w.ID, w.Loc.X, w.Loc.Y, w.Reach, w.On, w.Off)
		case workload.TaskSubmit:
			s := ev.Task
			fmt.Fprintf(&b, "t %d %v %v %v %v %d\n", s.ID, s.Loc.X, s.Loc.Y, s.Pub, s.Exp, s.Cell)
		}
	}
	for _, s := range sc.History {
		fmt.Fprintf(&b, "h %d %v %v %v\n", s.ID, s.Loc.X, s.Loc.Y, s.Pub)
	}
	return b.String()
}

// TestArchetypeTracesByteDeterministic pins the suite's reproducibility
// contract: a fixed seed generates byte-identical traces on every run, for
// every registered archetype.
func TestArchetypeTracesByteDeterministic(t *testing.T) {
	for _, a := range Registry() {
		t.Run(a.Name, func(t *testing.T) {
			first := traceBytes(a.Generate(1))
			second := traceBytes(a.Generate(1))
			if first != second {
				t.Fatal("trace differs across identical generations")
			}
		})
	}
}

// TestArchetypeReplayParallelismInvariant replays each archetype's trace
// through a sharded dispatcher at several parallelism levels and requires
// identical assignment outcomes — the property that lets suite runs compare
// across machines with different core counts.
func TestArchetypeReplayParallelismInvariant(t *testing.T) {
	travel := geo.NewTravelModel(0.005)
	ladder := func(int) []assign.Planner {
		return []assign.Planner{&assign.Greedy{Opts: assign.Options{WDS: wds.Options{Travel: travel}}}}
	}
	for _, a := range Registry() {
		t.Run(a.Name, func(t *testing.T) {
			sc := a.Generate(0.25)
			var ref dispatch.Metrics
			for i, parallelism := range []int{1, 4} {
				d := dispatch.New(dispatch.Config{
					Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0,
					NewLadder: ladder, Parallelism: parallelism,
				})
				g := dispatch.LoadGen{Events: sc.Events(), T1: sc.T1}
				m := g.Run(d).Metrics
				if i == 0 {
					ref = m
					continue
				}
				if m.Assigned != ref.Assigned || m.Expired != ref.Expired ||
					m.Applied != ref.Applied || m.PlanCalls != ref.PlanCalls {
					t.Fatalf("parallelism %d diverges: assigned/expired/applied/plans = %d/%d/%d/%d, want %d/%d/%d/%d",
						parallelism, m.Assigned, m.Expired, m.Applied, m.PlanCalls,
						ref.Assigned, ref.Expired, ref.Applied, ref.PlanCalls)
				}
			}
		})
	}
}

// TestScalePreservesInvariants checks that density scaling leaves the
// archetype's structure alone: hotspot count, zone containment, window-length
// bounds, and cardinalities tracking the factor.
func TestScalePreservesInvariants(t *testing.T) {
	for _, a := range Registry() {
		for _, f := range []float64{0.5, 1, 3} {
			t.Run(fmt.Sprintf("%s/%gx", a.Name, f), func(t *testing.T) {
				sc := a.Generate(f)
				if err := a.Validate(sc, f); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestScaleLeavesClockAndRegionFixed(t *testing.T) {
	for _, a := range Registry() {
		c1, c5 := a.Scale(1), a.Scale(5)
		if c1.Duration != c5.Duration || c1.HistoryDuration != c5.HistoryDuration {
			t.Errorf("%s: Scale must not stretch the clock", a.Name)
		}
		if c1.Region != c5.Region || c1.Hotspots != c5.Hotspots {
			t.Errorf("%s: Scale must not move the region or hotspot structure", a.Name)
		}
		if c5.NumWorkers != max(1, int(float64(c1.NumWorkers)*5)) || c5.NumTasks != max(1, int(float64(c1.NumTasks)*5)) {
			t.Errorf("%s: Scale(5) cardinalities %d/%d do not track the factor", a.Name, c5.NumWorkers, c5.NumTasks)
		}
	}
}

func TestScalePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) must panic")
		}
	}()
	a, _ := Get("yueche")
	a.Scale(0)
}
