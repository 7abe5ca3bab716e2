package benchsuite

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/scenario"
)

// tinyOptions is a seconds-fast suite slice used by every test here.
func tinyOptions() Options {
	return Options{
		Scenarios: []string{"yueche", "multi-city"},
		Scales:    []float64{0.3},
		Methods:   []string{"Greedy"},
		Step:      4,
		Shards:    2,
	}
}

func TestSuiteRunsAndValidates(t *testing.T) {
	r, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Results), 2; got != want {
		t.Fatalf("suite produced %d cells, want %d", got, want)
	}
	for _, c := range r.Results {
		if c.Offline.PlanCalls == 0 || c.Live.Epochs == 0 {
			t.Errorf("%s: empty measurement %+v", c.Scenario, c)
		}
		if c.Live.EventsPerSec <= 0 || c.Offline.EventsPerSec <= 0 {
			t.Errorf("%s: missing throughput", c.Scenario)
		}
	}
}

// TestSuiteAssignmentRatesDeterministic pins the property Compare relies on:
// re-running the same suite slice reproduces every outcome exactly, so the
// equality gate only ever trips on a behavior change.
func TestSuiteAssignmentRatesDeterministic(t *testing.T) {
	first, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Compare(first, second, 0.50); err != nil || n != 2 {
		t.Fatalf("self-compare: %d cells, err %v", n, err)
	}
}

// syntheticReport is a valid two-cell report with every counter non-zero and
// the second cell an overload one. The first cell's live terminal counts also
// sum to its tasks, so flipping its overload mark still validates; its epoch
// percentiles leave room for a tenfold p50.
func syntheticReport() *Report {
	cell := Cell{
		Scenario: "alpha", Scale: 1, Method: "DTA", Workers: 10, Tasks: 40,
		Offline: Path{
			Assigned: 20, Expired: 10, PlanCalls: 30, AvgPlanNS: 1000,
			WallMS: 5, EventsPerSec: 1e4, AllocBytes: 1 << 20, Allocs: 1000,
		},
		Live: Path{
			Assigned: 18, Expired: 12, PlanCalls: 60, AvgPlanNS: 2000,
			WallMS: 8, EventsPerSec: 6e3, AllocBytes: 2 << 20, Allocs: 3000,
			Epochs: 30, Shards: 2, EpochP50NS: 10_000, EpochP95NS: 200_000, EpochP99NS: 300_000,
			Cancelled: 4, Shed: 6, Deferred: 11,
			TierDemotions: 2, TierPromotions: 2, WorstTier: 1,
		},
	}
	rederive(&cell)
	chaos := cell
	chaos.Scenario, chaos.Overload = "beta", true
	return &Report{
		Schema: Schema, Scenarios: []string{"alpha", "beta"}, Scales: []float64{1}, Methods: []string{"DTA"},
		Step: 2, Shards: 2, Results: []Cell{cell, chaos},
	}
}

// rederive recomputes the fields Validate holds to the counts.
func rederive(c *Cell) {
	c.Offline.AssignmentRate = rate(c.Offline.Assigned, c.Tasks)
	c.Live.AssignmentRate = rate(c.Live.Assigned, c.Tasks)
	c.FidelityGap = c.Offline.AssignmentRate - c.Live.AssignmentRate
}

// mutated returns a deep-enough copy of r with mutate applied to its first
// cell and the derived fields brought back in line.
func mutated(r *Report, mutate func(*Cell)) *Report {
	cp := *r
	cp.Results = append([]Cell(nil), r.Results...)
	mutate(&cp.Results[0])
	rederive(&cp.Results[0])
	return &cp
}

// TestCompareDetectsRegression walks the deterministic fields: moving any one
// of them by one in one cell fails the compare with that cell and field named,
// in either direction, while a tenfold swing of any ungated timing or
// allocation figure passes.
func TestCompareDetectsRegression(t *testing.T) {
	base := syntheticReport()
	if n, err := Compare(base, base, 0.50); err != nil || n != 2 {
		t.Fatalf("self-compare: %d cells, err %v", n, err)
	}
	outcomes := []struct {
		field string
		bump  func(*Cell)
	}{
		{"workers", func(c *Cell) { c.Workers++ }},
		{"tasks", func(c *Cell) { c.Tasks++ }},
		{"overload", func(c *Cell) { c.Overload = !c.Overload }},
		{"offline.assigned", func(c *Cell) { c.Offline.Assigned++ }},
		{"offline.expired", func(c *Cell) { c.Offline.Expired++ }},
		{"offline.plan_calls", func(c *Cell) { c.Offline.PlanCalls++ }},
		{"live.assigned", func(c *Cell) { c.Live.Assigned++ }},
		{"live.expired", func(c *Cell) { c.Live.Expired++ }},
		{"live.plan_calls", func(c *Cell) { c.Live.PlanCalls++ }},
		{"live.epochs", func(c *Cell) { c.Live.Epochs++ }},
		{"live.cancelled", func(c *Cell) { c.Live.Cancelled++ }},
		{"live.shed", func(c *Cell) { c.Live.Shed++ }},
		{"live.deferred", func(c *Cell) { c.Live.Deferred++ }},
		{"live.tier_demotions", func(c *Cell) { c.Live.TierDemotions++ }},
		{"live.tier_promotions", func(c *Cell) { c.Live.TierPromotions++ }},
		{"live.worst_tier", func(c *Cell) { c.Live.WorstTier++ }},
	}
	// The table above is written out rather than derived from outcomeFields so
	// that it can write the fields; it must still name every one of them.
	if len(outcomes) != len(outcomeFields) {
		t.Fatalf("test covers %d deterministic fields, Compare gates %d", len(outcomes), len(outcomeFields))
	}
	for i, tc := range outcomes {
		if tc.field != outcomeFields[i].name {
			t.Fatalf("field %d: test has %q, Compare gates %q", i, tc.field, outcomeFields[i].name)
		}
		cur := mutated(base, tc.bump)
		for _, dir := range []struct {
			name      string
			base, cur *Report
		}{{"gained", base, cur}, {"lost", cur, base}} {
			n, err := Compare(dir.base, dir.cur, 0.50)
			if err == nil {
				t.Errorf("%s %s by one: compare passed", tc.field, dir.name)
				continue
			}
			if n != 2 || !strings.Contains(err.Error(), "alpha 1x DTA: "+tc.field+" ") || strings.Contains(err.Error(), "beta") {
				t.Errorf("%s %s by one: want the one cell and field named, got %d cells, %v", tc.field, dir.name, n, err)
			}
		}
	}

	for _, tc := range []struct {
		field string
		scale func(*Cell)
	}{
		{"offline.avg_plan_ns", func(c *Cell) { c.Offline.AvgPlanNS *= 10 }},
		{"offline.wall_ms", func(c *Cell) { c.Offline.WallMS *= 10 }},
		{"offline.events_per_sec", func(c *Cell) { c.Offline.EventsPerSec /= 10 }},
		{"offline.alloc_bytes", func(c *Cell) { c.Offline.AllocBytes *= 10 }},
		{"offline.allocs", func(c *Cell) { c.Offline.Allocs *= 10 }},
		{"live.avg_plan_ns", func(c *Cell) { c.Live.AvgPlanNS *= 10 }},
		{"live.wall_ms", func(c *Cell) { c.Live.WallMS *= 10 }},
		{"live.events_per_sec", func(c *Cell) { c.Live.EventsPerSec /= 10 }},
		{"live.alloc_bytes", func(c *Cell) { c.Live.AllocBytes *= 10 }},
		{"live.allocs", func(c *Cell) { c.Live.Allocs *= 10 }},
		{"live.epoch_p50_ns", func(c *Cell) { c.Live.EpochP50NS *= 10 }},
		{"live.epoch_p99_ns", func(c *Cell) { c.Live.EpochP99NS *= 10 }},
	} {
		if _, err := Compare(base, mutated(base, tc.scale), 0.50); err != nil {
			t.Errorf("%s tenfold worse must not gate: %v", tc.field, err)
		}
	}
}

// TestCompareRejectsConfigMismatch: outcomes of a different shard count, epoch
// length or SSP sampling pair are not the baseline's outcomes under test, so
// comparing them is an error whatever the cells hold — here they hold the
// baseline's own numbers, which an outcome-only compare would pass.
func TestCompareRejectsConfigMismatch(t *testing.T) {
	base := syntheticReport()
	for i := range base.Results {
		base.Results[i].Method, base.Results[i].Samples = "SSP", 5
	}
	base.Methods, base.Samples = []string{"SSP"}, 5
	if _, err := Compare(base, base, 0.50); err != nil {
		t.Fatalf("self-compare: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
	}{
		{"shards", func(r *Report) { r.Shards = 4 }},
		{"step_seconds", func(r *Report) { r.Step = 1 }},
		{"samples", func(r *Report) { r.Results[0].Samples = 8 }},
		{"cvar_alpha", func(r *Report) { r.Results[0].CVaRAlpha = 0.5 }},
	} {
		cur := mutated(base, func(*Cell) {})
		tc.mutate(cur)
		if _, err := Compare(base, cur, 0.50); err == nil || !strings.Contains(err.Error(), "configurations differ") {
			t.Errorf("%s differs: want a configuration error, got %v", tc.name, err)
		}
	}
}

// TestCompareDetectsEpochP95Blowup pins the latency gate: an epoch-p95
// regression beyond the tolerance fails even though every outcome is
// unchanged — measured against the 10 ms floor when the baseline is below it.
func TestCompareDetectsEpochP95Blowup(t *testing.T) {
	setP95 := func(ns int64) func(*Cell) {
		return func(c *Cell) { c.Live.EpochP95NS, c.Live.EpochP99NS = ns, ns+1 }
	}
	// A baseline above the floor gates on its own value.
	base := mutated(syntheticReport(), setP95(20_000_000))
	cur := mutated(base, setP95(60_000_000))
	if _, err := Compare(base, cur, 0.50); err == nil {
		t.Fatal("3x epoch p95 must fail the 50% growth gate")
	} else if !strings.Contains(err.Error(), "epoch p95") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same report passes with the latency gate disabled.
	if _, err := Compare(base, cur, 0); err != nil {
		t.Fatalf("disabled latency gate must pass: %v", err)
	}
	// Growth within tolerance passes.
	if _, err := Compare(base, mutated(base, setP95(28_000_000)), 0.50); err != nil {
		t.Fatalf("40%% p95 growth within 50%% tolerance must pass: %v", err)
	}
	// A lightweight baseline gates against the 10 ms floor, not the raw
	// value: multi-x growth inside the floor's allowance is host noise and
	// passes, but a blowup past the floor still fails.
	tiny := mutated(base, setP95(400_000))
	if _, err := Compare(tiny, mutated(base, setP95(4_000_000)), 0.50); err != nil {
		t.Fatalf("sub-floor noise must not gate on p95: %v", err)
	}
	if _, err := Compare(tiny, mutated(base, setP95(500_000_000)), 0.50); err == nil {
		t.Fatal("sub-floor baseline blowing up past the floor must fail the gate")
	}
}

func TestCompareRejectsDisjointReports(t *testing.T) {
	base, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.Results = append([]Cell(nil), base.Results...)
	for i := range cur.Results {
		cur.Results[i].Scenario = "renamed-" + cur.Results[i].Scenario
	}
	if _, err := Compare(base, &cur, 0.50); err == nil {
		t.Fatal("disjoint cell sets must not silently pass")
	}
}

func TestValidateRejectsMalformedReports(t *testing.T) {
	good, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "datawa-bench-suite/0" }},
		// One schema: the tags of the six deleted snapshots are as wrong as
		// any other string.
		{"previous schema", func(r *Report) { r.Schema = "datawa-bench-suite/6" }},
		{"first schema", func(r *Report) { r.Schema = "datawa-bench-suite/1" }},
		{"no results", func(r *Report) { r.Results = nil }},
		{"rate out of range", func(r *Report) { r.Results[0].Offline.AssignmentRate = 1.5 }},
		{"rate not assigned over tasks", func(r *Report) {
			r.Results[0].Offline.AssignmentRate += 0.25
			r.Results[0].FidelityGap += 0.25
		}},
		{"fidelity gap inconsistent", func(r *Report) { r.Results[0].FidelityGap += 0.5 }},
		{"conservation", func(r *Report) { r.Results[0].Live.Expired = r.Results[0].Tasks }},
		{"percentile order", func(r *Report) { r.Results[0].Live.EpochP50NS = r.Results[0].Live.EpochP99NS + 1 }},
		{"missing scenario", func(r *Report) { r.Results[0].Scenario = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *good
			bad.Results = append([]Cell(nil), good.Results...)
			tc.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("malformed report passed validation")
			}
		})
	}
}

// TestCompareFlagsMissingCells pins the coverage gate: a baseline cell
// inside the candidate's scenario/scale/method axes must be present in the
// candidate, while cells outside those axes (a 1x CI run against a 1x+5x
// snapshot) stay legitimately skippable.
func TestCompareFlagsMissingCells(t *testing.T) {
	base, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same axes, one cell silently dropped: error.
	cur := *base
	cur.Results = append([]Cell(nil), base.Results[:1]...)
	if _, err := Compare(base, &cur, 0.50); err == nil {
		t.Fatal("dropped in-axes cell must fail the compare")
	} else if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A genuinely narrowed run: the dropped cell's scenario is absent from
	// the candidate's results entirely, so it is outside the candidate's
	// scenario axis and the compare passes on the remaining overlap.
	opts := tinyOptions()
	opts.Scenarios = opts.Scenarios[:1]
	narrow, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Compare(base, narrow, 0.50); err != nil || n != 1 {
		t.Fatalf("narrowed-axes compare: %d cells, err %v", n, err)
	}
}

// TestLoadRefusesOldKeys holds Load to the one schema: a report this
// package wrote loads, and the same file with a key an earlier schema had —
// schema 6's per-cell transport tag, a live path's incremental_hits or
// components_replanned — is refused, naming the key, not decoded as if the
// key were absent.
func TestLoadRefusesOldKeys(t *testing.T) {
	doc, err := json.Marshal(syntheticReport())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	load := func(name string, doc []byte) error {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		return err
	}
	if err := load("current", doc); err != nil {
		t.Fatalf("a report of this schema: %v", err)
	}
	for _, tc := range []struct{ key, after, insert string }{
		{"transport", `{"scenario":"alpha",`, `"transport":"json",`},
		{"incremental_hits", `"live":{`, `"incremental_hits":3,`},
		{"components_replanned", `"live":{`, `"components_replanned":5,`},
	} {
		old := bytes.Replace(doc, []byte(tc.after), []byte(tc.after+tc.insert), 1)
		if bytes.Equal(old, doc) {
			t.Fatalf("%s: test did not insert the key", tc.key)
		}
		if err := load(tc.key, old); err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("report with a %s key: want a load error naming it, got %v", tc.key, err)
		}
	}
}

// TestCommittedSnapshotIsCurrent is the outcome gate inside `go test ./...`:
// the repo root holds exactly one suite snapshot (found by glob — the file is
// replaced, not accumulated, so no Go file names its number), it is a report
// of this schema and nothing else, it covers the documented axes, and a fresh
// 1x run of the training-free methods reproduces every deterministic outcome
// in it. The latency gate is off: a test must not fail on a loaded host.
func TestCommittedSnapshotIsCurrent(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_[0-9]*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("want exactly one BENCH_<pr>.json at the repo root, found %v", paths)
	}
	snap, err := Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// The axes and configuration docs/BENCHMARKS.md documents for it.
	scenarios, scales, methods := scenario.Names(), []float64{1, 5}, []string{"Greedy", "DTA", "SSP"}
	if !slices.Equal(snap.Scenarios, scenarios) || !slices.Equal(snap.Scales, scales) || !slices.Equal(snap.Methods, methods) {
		t.Fatalf("%s: axes %v × %v × %v, want %v × %v × %v",
			paths[0], snap.Scenarios, snap.Scales, snap.Methods, scenarios, scales, methods)
	}
	if snap.Step != 2 || snap.Shards != 2 || snap.Samples != datawa.DefaultSamples || snap.CVaRAlpha != 0 {
		t.Fatalf("%s: ran %gs epochs on %d shards with K=%d α=%g, want 2s on 2 with K=%d α=0",
			paths[0], snap.Step, snap.Shards, snap.Samples, snap.CVaRAlpha, datawa.DefaultSamples)
	}
	if got, want := len(snap.Results), len(scenarios)*len(scales)*len(methods); got != want {
		t.Fatalf("%s: %d cells, want %d", paths[0], got, want)
	}
	cur, err := Run(Options{Scales: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Compare(snap, cur, 0); err != nil || n != len(cur.Results) {
		t.Fatalf("fresh 1x run against %s: %d of %d cells compared, %v", paths[0], n, len(cur.Results), err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	opts := tinyOptions()
	opts.Scenarios = []string{"atlantis"}
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown scenario must error")
	}
}
