package benchsuite

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// replayChaos drives one chaos archetype trace through a sharded dispatcher
// under the archetype's overload profile, quiesces to a full drain, and
// returns the final snapshot. Conservation, the lifecycle-ledger chain audit,
// and drain are asserted here, so every caller gets the chaos gate for free.
// Set DATAWA_FLIGHT_DIR to also arm the flight recorder and keep its dumps as
// debugging artifacts (CI uploads them on failure).
func replayChaos(t *testing.T, arch scenario.Archetype, sc *datawa.Scenario, m datawa.Method, shards int) dispatch.Metrics {
	t.Helper()
	fw := datawa.New(datawa.Config{
		Region:   sc.Config.Region,
		GridRows: sc.Config.GridRows, GridCols: sc.Config.GridCols,
		Step: 2, Seed: sc.Config.Seed, MaxSearchNodes: 4000,
	})
	dc := datawa.DispatchConfig{Shards: shards, Step: 2, Now: sc.T0}
	applyOverload(&dc, arch.Overload)
	// The ledger must hold every task's chain, or the post-drain audit would
	// only cover a sample (evictions are asserted zero below).
	dc.Obs.LedgerTasks = len(sc.Tasks) + 1024
	if dir := os.Getenv("DATAWA_FLIGHT_DIR"); dir != "" {
		dc.Obs.FlightDepth = 16
		dc.Obs.FlightDir = dir
	}
	d, err := fw.NewDispatcher(m, dc)
	if err != nil {
		t.Fatal(err)
	}
	dispatch.LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
	if !d.Quiesce(quiesceEpochs) {
		t.Fatalf("%s %s shards=%d: did not quiesce within %d epochs: %+v",
			arch.Name, m, shards, quiesceEpochs, d.Snapshot())
	}
	met := d.Snapshot()
	issues, evictions := d.LedgerAudit()
	terminal := met.Assigned + met.Expired + met.Cancelled + int(met.Shed)
	if terminal != len(sc.Tasks) || met.Unroutable != 0 {
		// The ledger names the exact tasks behind the delta: every chain
		// still open (or malformed) after a full drain is a leaked task.
		t.Fatalf("%s %s shards=%d: conservation violated: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d (unroutable %d); ledger audit: %v",
			arch.Name, m, shards, met.Assigned, met.Expired, met.Cancelled, met.Shed,
			terminal, len(sc.Tasks), met.Unroutable, issues)
	}
	if len(issues) != 0 || evictions != 0 {
		t.Fatalf("%s %s shards=%d: lifecycle ledger audit failed (evictions %d): %v",
			arch.Name, m, shards, evictions, issues)
	}
	// The chain terminals must reproduce the snapshot counters exactly —
	// a counter the ledger cannot account for is a double- or un-ledgered
	// disposal.
	terms := d.LedgerTerminals()
	want := map[obs.State]int{}
	if met.Assigned > 0 {
		want[obs.Assigned] = met.Assigned
	}
	if met.Expired > 0 {
		want[obs.Expired] = met.Expired
	}
	if met.Cancelled > 0 {
		want[obs.Cancelled] = met.Cancelled
	}
	if met.Shed > 0 {
		want[obs.Shed] = int(met.Shed)
	}
	for st, n := range want {
		if terms[st] != n {
			t.Fatalf("%s %s shards=%d: ledger has %d %q chains, snapshot counter says %d (full tally %v)",
				arch.Name, m, shards, terms[st], st, n, terms)
		}
	}
	for _, s := range met.Shards {
		if s.Tier != 0 {
			t.Fatalf("%s %s shards=%d: shard %d still on tier %d (%s) after quiesce",
				arch.Name, m, shards, s.Shard, s.Tier, s.TierName)
		}
	}
	return met
}

// TestChaosArchetypes replays every overload-marked atlas archetype through
// the live dispatcher under its admission/governor profile: the replay must
// complete (no panic, no deadlock — Quiesce converges), account for every
// submitted task exactly once, exercise the admission path, and end with
// every shard recovered to the top planner tier.
func TestChaosArchetypes(t *testing.T) {
	chaos := 0
	for _, arch := range scenario.Registry() {
		if arch.Overload == nil {
			continue
		}
		chaos++
		sc := arch.Generate(1)
		met := replayChaos(t, arch, sc, datawa.MethodDTA, 4)
		if met.Shed == 0 && met.Deferred == 0 {
			t.Errorf("%s: admission control never shed or deferred — the archetype does not overload", arch.Name)
		}
		t.Logf("%-13s assigned %4d expired %4d cancelled %3d shed %4d deferred %4d tier↓%d↑%d worst %d",
			arch.Name, met.Assigned, met.Expired, met.Cancelled, met.Shed, met.Deferred,
			met.TierDemotions, met.TierPromotions, met.WorstTier)
	}
	if chaos == 0 {
		t.Fatal("atlas has no chaos archetypes")
	}
}

// TestFlashFloodDegradesAndRecovers pins the governor's end-to-end contract
// on the canonical chaos archetype: during the 50x burst the governor demotes
// the DTA planner at least one tier, and after the burst drains it promotes
// every shard back to the full planner (asserted inside replayChaos).
func TestFlashFloodDegradesAndRecovers(t *testing.T) {
	arch, ok := scenario.Get("flash-flood")
	if !ok {
		t.Fatal("flash-flood archetype missing")
	}
	sc := arch.Generate(1)
	met := replayChaos(t, arch, sc, datawa.MethodDTA, 4)
	if met.WorstTier < 1 {
		t.Errorf("governor never demoted during the burst (worst tier %d)", met.WorstTier)
	}
	if met.TierDemotions == 0 || met.TierPromotions == 0 {
		t.Errorf("tier transitions %d down / %d up; want both non-zero", met.TierDemotions, met.TierPromotions)
	}
	if met.Shed == 0 {
		t.Errorf("a 50x burst against a %d-task pool cap must shed", arch.Overload.MaxOpenTasks)
	}
}

// TestChaosCellsDoNotCycle holds the governor's promotion rule to what it is
// for: a shard promotes once the rung above is predicted to fit its budget,
// so under sustained load it stays on the rung that fits instead of cycling
// between two. Every 1x DTA and SSP chaos cell of the suite — the ladders of
// three and four rungs — makes at most 10 round trips (promotions).
func TestChaosCellsDoNotCycle(t *testing.T) {
	var chaos []string
	for _, arch := range scenario.Registry() {
		if arch.Overload != nil {
			chaos = append(chaos, arch.Name)
		}
	}
	r, err := Run(Options{Scenarios: chaos, Scales: []float64{1}, Methods: []string{"DTA", "SSP"}})
	if err != nil {
		t.Fatal(err)
	}
	const maxRoundTrips = 10
	for _, c := range r.Results {
		t.Logf("%-13s %s: tier↓%d↑%d worst %d", c.Scenario, c.Method, c.Live.TierDemotions, c.Live.TierPromotions, c.Live.WorstTier)
		if c.Live.TierPromotions > maxRoundTrips {
			t.Errorf("%s 1x %s: %d round trips between rungs, want at most %d", c.Scenario, c.Method, c.Live.TierPromotions, maxRoundTrips)
		}
	}
}

// TestStalledShardDemotesInIsolation pins the governor's per-shard scope on
// the archetype built for it: with every task pinned to one shard band, the
// span trace must show the hot shard over budget and demoted while at least
// one idle sibling never leaves the full planner. Each shard's step span
// carries the tier the epoch planned at and the planner work the governor
// scored (work=).
func TestStalledShardDemotesInIsolation(t *testing.T) {
	arch, ok := scenario.Get("stalled-shard")
	if !ok {
		t.Fatal("stalled-shard archetype missing")
	}
	sc := arch.Generate(1)
	fw := datawa.New(datawa.Config{
		Region:   sc.Config.Region,
		GridRows: sc.Config.GridRows, GridCols: sc.Config.GridCols,
		Step: 2, Seed: sc.Config.Seed, MaxSearchNodes: 4000,
	})
	dc := datawa.DispatchConfig{Shards: 4, Step: 2, Now: sc.T0, Obs: datawa.ObsConfig{Spans: 4096}}
	applyOverload(&dc, arch.Overload)
	d, err := fw.NewDispatcher(datawa.MethodDTA, dc)
	if err != nil {
		t.Fatal(err)
	}
	dispatch.LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
	trace := d.SpanTrace(0)
	if len(trace) == 0 {
		t.Fatal("ObsConfig.Spans is set but no epoch spans were retained")
	}
	demoted := make([]bool, 4)
	overBudget := make([]bool, 4)
	for _, e := range trace {
		shards := 0
		for _, sp := range e.Spans {
			if sp.Track == 0 {
				continue
			}
			shards++
			var workers, open, work, tier int
			if _, err := fmt.Sscanf(sp.Detail, "workers=%d open=%d work=%d tier=%d", &workers, &open, &work, &tier); err != nil {
				t.Fatalf("epoch %d shard span detail %q: %v", e.Epoch, sp.Detail, err)
			}
			if tier > 0 {
				demoted[sp.Track-1] = true
			}
			if float64(work) > arch.Overload.BudgetUnits {
				overBudget[sp.Track-1] = true
			}
		}
		if shards != 4 {
			t.Fatalf("epoch %d has %d shard spans, want 4", e.Epoch, shards)
		}
	}
	hot, idle := 0, 0
	for i := range demoted {
		switch {
		case demoted[i]:
			hot++
			if !overBudget[i] {
				t.Errorf("shard %d demoted without a recorded over-budget epoch", i)
			}
		default:
			idle++
		}
	}
	if hot == 0 {
		t.Error("no shard ever demoted; the hot band never stalled")
	}
	if idle == 0 {
		t.Error("every shard demoted; the idle bands should never leave the full planner")
	}
}

// TestChaosReplayDeterministic pins the suite's comparability contract on
// the chaos path: two full flash-flood replays — admission decisions, tier
// transitions, terminal counters — are byte-identical once wall-clock-only
// fields are blanked, because the governor costs epochs in counted planner
// work.
func TestChaosReplayDeterministic(t *testing.T) {
	arch, ok := scenario.Get("flash-flood")
	if !ok {
		t.Fatal("flash-flood archetype missing")
	}
	sc := arch.Generate(1)
	normalize := func(m dispatch.Metrics) string {
		m.EpochP50, m.EpochP95, m.EpochP99 = 0, 0, 0
		m.PlanTime = 0
		for i := range m.Shards {
			m.Shards[i].Stats.PlanTime = 0
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := normalize(replayChaos(t, arch, sc, datawa.MethodDTA, 4))
	b := normalize(replayChaos(t, arch, sc, datawa.MethodDTA, 4))
	if a != b {
		t.Fatalf("chaos replays diverged\nfirst:  %s\nsecond: %s", a, b)
	}
}
