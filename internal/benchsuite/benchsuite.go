// Package benchsuite runs the scenario-atlas benchmark suite: every
// registered archetype (internal/scenario) × assignment method × density
// scale, each replayed through both the offline stream engine
// (datawa.Framework.Run) and the live dispatch path (dispatch.LoadGen over a
// sharded Dispatcher). The result is a schema-versioned Report — the
// BENCH_*.json files at the repo root — recording throughput, epoch latency
// percentiles, assignment rate, and allocations, so successive PRs can
// compare performance against the committed snapshot.
//
// Chaos archetypes (scenario.Archetype.Overload != nil) run their live path
// under the archetype's admission-control and governor profile with the
// deterministic work-unit cost function, then quiesce to a full drain; their
// cells are marked overload and must satisfy exact task conservation
// (assigned + expired + cancelled + shed == tasks), which Validate enforces
// on every load and Run enforces at generation time. The offline/live
// fidelity gate skips them — shedding makes the two paths diverge by design.
//
// Assignment outcomes (assigned/expired counts, and therefore
// assignment_rate) are deterministic given the archetype seed, at every
// parallelism level and on every machine; wall-clock and allocation figures
// are informational and host-dependent. Compare gates on assignment rate
// (hard, deterministic) and — with a separate, looser threshold — on the
// live path's epoch p95 latency, so a perf PR cannot silently trade epoch
// latency for throughput. docs/BENCHMARKS.md documents the schema and the
// regeneration policy.
package benchsuite

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/dispatch"
	"repro/internal/scenario"
)

// Schema identifies the Report wire format. Bump the suffix on any
// incompatible change and teach Validate the older versions so committed
// snapshots keep working as -compare baselines. Version 2 added the per-cell
// fidelity_gap field and the top-level halo_radius_km echo; version 3 added
// the live path's incremental-replanning reuse counters (incremental_hits,
// components_replanned) and the top-level incremental echo; version 4 added
// the chaos archetypes (cells marked overload, run under admission control
// and the SLA governor) and their live-path shed/deferred/cancelled and
// planner-tier counters, plus the exact task-conservation check Validate
// applies to overload cells; version 5 added the ingest transport axis —
// cells carry a transport tag ("json" per-event, "stream" batched binary
// wire frames) and reports echo the Transports option. A missing or empty
// transport means "json": pre-v5 snapshots predate the stream transport, so
// Compare matches their cells against v5 json cells. Version 6 added the
// scenario-sampling method (SSP): its cells echo the sampling configuration
// (samples, cvar_alpha) alongside the method tag, and reports echo the
// Samples and CVaRAlpha options; cells of the other methods are unchanged,
// so pre-v6 baselines keep gating them.
const Schema = "datawa-bench-suite/6"

// legacySchemas are older wire formats Validate still accepts.
var legacySchemas = []string{"datawa-bench-suite/5", "datawa-bench-suite/4", "datawa-bench-suite/3", "datawa-bench-suite/2", "datawa-bench-suite/1"}

// schemaV1 is the oldest format, which predates the fidelity_gap field.
const schemaV1 = "datawa-bench-suite/1"

// p95GateFloorNS clamps the baseline of Compare's latency gate from below:
// growth is measured relative to max(baseline, 10 ms). Epoch latencies are
// wall-clock — run-to-run variance reaches 2x on µs-scale cells and the
// committed snapshot may come from a faster host than the CI runner — so a
// purely relative threshold on small baselines would gate on scheduler and
// hardware noise. The floor widens the allowance instead of exempting the
// cell: a lightweight cell blowing up past ~15 ms still fails, while the
// gate's real target — order-of-magnitude regressions on the heavyweight
// cells (hundreds of ms to seconds) — is gated at the full 50% tolerance.
const p95GateFloorNS = int64(10 * time.Millisecond)

// Options parameterizes one suite run. The zero value runs every registered
// archetype with the training-free methods at 1x and 5x density.
type Options struct {
	// Scenarios selects atlas archetypes by name (empty = all registered).
	Scenarios []string
	// Scales lists the density multipliers per archetype (empty = 1, 5).
	Scales []float64
	// Methods lists assignment methods (empty = Greedy, DTA — the
	// training-free pair; DTA+TP and DATA-WA train their models per cell
	// and cost accordingly).
	Methods []string
	// Transports lists the live-path ingest transports to measure: "json"
	// replays per event (the pre-v5 behavior and the only valid entry for
	// older baselines), "stream" replays through the batched binary wire
	// path (encode → frame → decode → IngestBatch). Empty = json only.
	// Assignment outcomes are transport-independent — the dispatch property
	// tests pin byte-identical snapshots — so extra transports add
	// throughput cells, never new behavior.
	Transports []string
	// Step is the planning epoch length in seconds (default 2).
	Step float64
	// Shards is the live path's dispatcher shard count (default 2).
	Shards int
	// HaloRadius is the live path's cross-shard handoff radius in km
	// (0 = auto from worker reach, negative = disable ghost replication);
	// see dispatch.Config.HaloRadius.
	HaloRadius float64
	// DisableIncremental turns off the live path's incremental epoch
	// replanning (dispatch.Config.DisableIncremental). Assignment outcomes
	// are identical either way; only epoch cost and the reuse counters
	// change.
	DisableIncremental bool
	// Parallelism bounds planner fan-out (0 = one goroutine per CPU).
	Parallelism int
	// MaxNodes caps exact-search effort per RTC tree (default 4000); a
	// planning call spends up to that on every tree of its forest.
	MaxNodes int
	// Samples is the demand futures SSP cells draw per forecast instant
	// (0 = the framework default); CVaRAlpha their risk knob (0 = expected
	// value). Both are ignored by — and not echoed on — non-SSP cells.
	Samples   int
	CVaRAlpha float64
	// Log, when non-nil, receives one progress line per cell.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if len(o.Scenarios) == 0 {
		o.Scenarios = scenario.Names()
	}
	if len(o.Scales) == 0 {
		o.Scales = []float64{1, 5}
	}
	if len(o.Methods) == 0 {
		o.Methods = []string{string(datawa.MethodGreedy), string(datawa.MethodDTA)}
	}
	if len(o.Transports) == 0 {
		o.Transports = []string{TransportJSON}
	}
	if o.Step <= 0 {
		o.Step = 2
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4000
	}
	if o.Samples <= 0 {
		o.Samples = datawa.DefaultSamples
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Report is the suite's machine-readable result document.
type Report struct {
	// Schema is the wire-format version tag (the Schema constant).
	Schema string `json:"schema"`
	// GoVersion, OS and Arch identify the host toolchain; wall-clock and
	// allocation figures are only comparable within a matching triple.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// Scenarios, Scales, Methods, Step, Shards, HaloRadius, Incremental and
	// Parallelism echo the options that produced the report. Scenarios
	// arrived with schema v3; Compare falls back to the result set's
	// scenario names for older reports.
	Scenarios   []string  `json:"scenarios,omitempty"`
	Scales      []float64 `json:"scales"`
	Methods     []string  `json:"methods"`
	Transports  []string  `json:"transports,omitempty"`
	Step        float64   `json:"step_seconds"`
	Shards      int       `json:"shards"`
	HaloRadius  float64   `json:"halo_radius_km"`
	Incremental bool      `json:"incremental"`
	Parallelism int       `json:"parallelism"`
	// Samples and CVaRAlpha echo the SSP sampling options (schema v6);
	// absent when no SSP cells were requested.
	Samples   int     `json:"samples,omitempty"`
	CVaRAlpha float64 `json:"cvar_alpha,omitempty"`
	// Results holds one cell per scenario × scale × method, in scenario
	// name order.
	Results []Cell `json:"results"`
}

// Cell is one suite cell: a scenario at one density, run with one method
// through both execution paths.
type Cell struct {
	// Scenario is the atlas archetype name.
	Scenario string `json:"scenario"`
	// Scale is the density multiplier the archetype ran at.
	Scale float64 `json:"scale"`
	// Method is the assignment method (datawa.Method wire name).
	Method string `json:"method"`
	// Workers is the number of availability segments in the trace (break
	// splits count twice); Tasks the number of real tasks.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	// Offline replays the trace through the stream engine; Live replays
	// the same trace through the sharded dispatch service.
	Offline Path `json:"offline"`
	Live    Path `json:"live"`
	// FidelityGap is offline minus live assignment rate: how far the sharded
	// live path trails the engine-equivalent reference on this cell.
	// Negative means the live path assigned more. With cross-shard halo
	// handoff the gap stays within one percentage point; a larger value
	// means boundary visibility or arbitration regressed. Overload cells are
	// exempt from the fidelity gate: shedding makes the paths diverge by
	// design.
	FidelityGap float64 `json:"fidelity_gap"`
	// Overload marks a chaos cell: the live path ran under the archetype's
	// admission-control and governor profile (scenario.OverloadProfile) with
	// the deterministic work-unit cost function, then quiesced to a full
	// drain. Validate asserts exact task conservation on these cells.
	Overload bool `json:"overload,omitempty"`
	// Transport is the live path's ingest transport: TransportJSON
	// (per-event, the pre-v5 default — empty means the same) or
	// TransportStream (batched binary wire frames). The offline path never
	// involves a transport, so stream cells reuse the json cell's offline
	// figures verbatim.
	Transport string `json:"transport,omitempty"`
	// Samples and CVaRAlpha echo the sampling configuration of an SSP cell
	// (schema v6): the demand futures drawn per forecast instant and the
	// CVaR risk knob (0 = expected value). Zero on non-SSP cells.
	Samples   int     `json:"samples,omitempty"`
	CVaRAlpha float64 `json:"cvar_alpha,omitempty"`
}

// Live-path ingest transports a Cell can be measured over.
const (
	TransportJSON   = "json"
	TransportStream = "stream"
)

// normTransport maps the empty (pre-v5) transport tag to TransportJSON so
// old and new snapshots compare like for like.
func normTransport(t string) string {
	if t == "" {
		return TransportJSON
	}
	return t
}

// Path is one execution path's measurement.
type Path struct {
	// Assigned and Expired are the run's terminal task counts;
	// AssignmentRate is Assigned / Tasks.
	Assigned       int     `json:"assigned"`
	Expired        int     `json:"expired"`
	AssignmentRate float64 `json:"assignment_rate"`
	// PlanCalls counts planner invocations; AvgPlanNS is the paper's
	// CPU-per-instant metric in nanoseconds.
	PlanCalls int   `json:"plan_calls"`
	AvgPlanNS int64 `json:"avg_plan_ns"`
	// WallMS is the path's wall-clock time; EventsPerSec the replay
	// throughput (worker + task arrivals per wall second).
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytes and Allocs are the Go heap deltas over the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// Epochs, Shards and the epoch latency percentiles are live-path only
	// (zero offline).
	Epochs     int   `json:"epochs,omitempty"`
	Shards     int   `json:"shards,omitempty"`
	EpochP50NS int64 `json:"epoch_p50_ns,omitempty"`
	EpochP95NS int64 `json:"epoch_p95_ns,omitempty"`
	EpochP99NS int64 `json:"epoch_p99_ns,omitempty"`
	// IncrementalHits and ComponentsReplanned are the live path's
	// incremental-replanning reuse counters (dispatch.Metrics); live-path
	// only, zero when incremental replanning is disabled.
	IncrementalHits     int64 `json:"incremental_hits,omitempty"`
	ComponentsReplanned int64 `json:"components_replanned,omitempty"`
	// Cancelled, Shed and Deferred are the live path's remaining terminal
	// and backpressure outcomes (dispatch.Metrics): on an overload cell
	// assigned + expired + cancelled + shed == tasks exactly after the
	// post-replay quiesce. Deferred counts per-epoch requeue events, so it
	// can exceed the task count. Live-path only; zero without admission
	// control.
	Cancelled int   `json:"cancelled,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
	Deferred  int64 `json:"deferred,omitempty"`
	// TierDemotions/TierPromotions count governor ladder transitions over
	// the run and WorstTier is the deepest ladder tier any shard reached
	// (0 = the method's full planner). Live-path only; zero without a
	// governor.
	TierDemotions  int64 `json:"tier_demotions,omitempty"`
	TierPromotions int64 `json:"tier_promotions,omitempty"`
	WorstTier      int   `json:"worst_tier,omitempty"`
}

// Run executes the suite and returns a validated report.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	r := &Report{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		Scenarios:   opts.Scenarios,
		Scales:      opts.Scales,
		Methods:     opts.Methods,
		Transports:  opts.Transports,
		Step:        opts.Step,
		Shards:      opts.Shards,
		HaloRadius:  opts.HaloRadius,
		Incremental: !opts.DisableIncremental,
		Parallelism: opts.Parallelism,
	}
	for _, m := range opts.Methods {
		if datawa.Method(m) == datawa.MethodSSP {
			r.Samples = opts.Samples
			r.CVaRAlpha = opts.CVaRAlpha
			break
		}
	}
	for _, name := range opts.Scenarios {
		arch, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("benchsuite: unknown scenario %q (atlas: %v)", name, scenario.Names())
		}
		for _, f := range opts.Scales {
			sc := arch.Generate(f)
			for _, method := range opts.Methods {
				// The offline engine has no ingest transport, so its
				// measurement from the first transport's cell is reused
				// verbatim by the rest.
				var offline *Path
				for _, transport := range opts.Transports {
					cell, err := runCell(arch, sc, f, datawa.Method(method), transport, offline, opts)
					if err != nil {
						return nil, fmt.Errorf("benchsuite: %s %gx %s (%s): %w", name, f, method, transport, err)
					}
					if offline == nil {
						off := cell.Offline
						offline = &off
					}
					r.Results = append(r.Results, cell)
					chaos := ""
					if cell.Overload {
						chaos = fmt.Sprintf(" | shed %d deferred %d tier↓%d↑%d worst %d",
							cell.Live.Shed, cell.Live.Deferred,
							cell.Live.TierDemotions, cell.Live.TierPromotions, cell.Live.WorstTier)
					}
					opts.Log("%-13s %4gx %-8s %-6s offline %5.1f%% %8.0f ev/s | live %5.1f%% %8.0f ev/s gap %+5.1fpp p95 %s%s",
						name, f, method, transport,
						100*cell.Offline.AssignmentRate, cell.Offline.EventsPerSec,
						100*cell.Live.AssignmentRate, cell.Live.EventsPerSec,
						100*cell.FidelityGap,
						time.Duration(cell.Live.EpochP95NS).Round(time.Microsecond), chaos)
				}
			}
		}
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("benchsuite: generated report is invalid: %w", err)
	}
	return r, nil
}

// framework builds and, for the prediction methods, trains one Framework for
// a cell.
func framework(sc *datawa.Scenario, m datawa.Method, opts Options) (*datawa.Framework, error) {
	c := sc.Config
	fw := datawa.New(datawa.Config{
		Region:   c.Region,
		GridRows: c.GridRows, GridCols: c.GridCols,
		Step: opts.Step, Seed: c.Seed,
		Parallelism:    opts.Parallelism,
		MaxSearchNodes: opts.MaxNodes,
		Samples:        opts.Samples,
		CVaRAlpha:      opts.CVaRAlpha,
	})
	if m.NeedsDemand() {
		if err := fw.TrainDemand(sc.History); err != nil {
			return nil, err
		}
	}
	if m.NeedsValue() {
		if err := fw.TrainValue(sc.Workers, sc.Tasks, 6); err != nil {
			return nil, err
		}
	}
	return fw, nil
}

// runCell measures one scenario × scale × method × transport through both
// paths. A non-nil offline is reused instead of re-running the offline
// engine — stream cells differ from their json siblings only on the live
// path's ingest transport.
func runCell(arch scenario.Archetype, sc *datawa.Scenario, f float64, m datawa.Method, transport string, offline *Path, opts Options) (Cell, error) {
	cell := Cell{
		Scenario: arch.Name, Scale: f, Method: string(m),
		Workers: len(sc.Workers), Tasks: len(sc.Tasks),
		Transport: transport,
	}
	if m == datawa.MethodSSP {
		cell.Samples = opts.Samples
		cell.CVaRAlpha = opts.CVaRAlpha
	}
	events := len(sc.Workers) + len(sc.Tasks)
	var m0, m1 runtime.MemStats

	if offline != nil {
		cell.Offline = *offline
	} else {
		// Offline: the closed-trace stream engine.
		fw, err := framework(sc, m, opts)
		if err != nil {
			return Cell{}, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := fw.Run(m, sc.Workers, sc.Tasks, sc.T0, sc.T1)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return Cell{}, err
		}
		cell.Offline = Path{
			Assigned: res.Assigned, Expired: res.Expired,
			AssignmentRate: rate(res.Assigned, len(sc.Tasks)),
			PlanCalls:      res.PlanCalls,
			AvgPlanNS:      res.AvgPlanTime.Nanoseconds(),
			WallMS:         float64(wall.Microseconds()) / 1000,
			EventsPerSec:   perSec(events, wall),
			AllocBytes:     m1.TotalAlloc - m0.TotalAlloc,
			Allocs:         m1.Mallocs - m0.Mallocs,
		}
	}

	// Live: the same trace through the sharded dispatch service. A fresh
	// framework keeps any forecaster state of the offline run out of the
	// measurement.
	fw, err := framework(sc, m, opts)
	if err != nil {
		return Cell{}, err
	}
	dc := datawa.DispatchConfig{
		Shards: opts.Shards, HaloRadius: opts.HaloRadius, Step: opts.Step, Now: sc.T0,
		DisableIncremental: opts.DisableIncremental,
	}
	if arch.Overload != nil {
		cell.Overload = true
		applyOverload(&dc, arch.Overload)
		// The lifecycle ledger lets a conservation failure name the exact
		// leaked or double-counted tasks instead of just the delta. Sized to
		// retain every chain so the audit covers the full population.
		dc.Obs.LedgerTasks = len(sc.Tasks) + 1024
	}
	d, err := fw.NewDispatcher(m, dc)
	if err != nil {
		return Cell{}, err
	}
	g := dispatch.LoadGen{Events: sc.Events(), T1: sc.T1, Stream: normTransport(transport) == TransportStream}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	lr := g.Run(d)
	met := lr.Metrics
	if cell.Overload {
		// Chaos gate: the dispatcher must reach a fully drained state with
		// every shard back on the top planner tier, and the terminal counters
		// must account for every submitted task exactly once.
		if !d.Quiesce(quiesceEpochs) {
			return Cell{}, fmt.Errorf("overload cell did not quiesce within %d epochs (snapshot: %+v)", quiesceEpochs, d.Snapshot())
		}
		met = d.Snapshot()
		terminal := met.Assigned + met.Expired + met.Cancelled + int(met.Shed)
		if terminal != len(sc.Tasks) || met.Unroutable != 0 {
			// The ledger audit names the exact tasks behind the delta:
			// after a full drain every chain must be terminal, so an open
			// or malformed chain is the leak itself.
			issues, evictions := d.LedgerAudit()
			return Cell{}, fmt.Errorf(
				"task conservation violated: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d submitted (unroutable %d); ledger audit (evictions %d): %v",
				met.Assigned, met.Expired, met.Cancelled, met.Shed, terminal, len(sc.Tasks), met.Unroutable, evictions, issues)
		}
		if issues, evictions := d.LedgerAudit(); len(issues) != 0 || evictions != 0 {
			return Cell{}, fmt.Errorf("lifecycle ledger audit failed on overload cell (evictions %d): %v", evictions, issues)
		}
	}
	runtime.ReadMemStats(&m1)
	avgPlan := int64(0)
	if met.PlanCalls > 0 {
		avgPlan = met.PlanTime.Nanoseconds() / int64(met.PlanCalls)
	}
	cell.Live = Path{
		Assigned: met.Assigned, Expired: met.Expired,
		AssignmentRate: rate(met.Assigned, len(sc.Tasks)),
		PlanCalls:      met.PlanCalls,
		AvgPlanNS:      avgPlan,
		WallMS:         float64(lr.Wall.Microseconds()) / 1000,
		EventsPerSec:   lr.AchievedRate,
		AllocBytes:     m1.TotalAlloc - m0.TotalAlloc,
		Allocs:         m1.Mallocs - m0.Mallocs,
		Epochs:         met.Epochs,
		Shards:         opts.Shards,
		EpochP50NS:     met.EpochP50.Nanoseconds(),
		EpochP95NS:     met.EpochP95.Nanoseconds(),
		EpochP99NS:     met.EpochP99.Nanoseconds(),

		IncrementalHits:     met.IncrementalHits,
		ComponentsReplanned: met.ComponentsReplanned,

		Cancelled:      met.Cancelled,
		Shed:           met.Shed,
		Deferred:       met.Deferred,
		TierDemotions:  met.TierDemotions,
		TierPromotions: met.TierPromotions,
		WorstTier:      met.WorstTier,
	}
	cell.FidelityGap = cell.Offline.AssignmentRate - cell.Live.AssignmentRate
	return cell, nil
}

// applyOverload maps a chaos archetype's overload profile onto a dispatch
// configuration. The governor costs epochs in work units (workers × open
// tasks at the planning instant) instead of wall time, so tier transitions —
// and therefore the whole cell — replay byte-identically on every host.
func applyOverload(dc *datawa.DispatchConfig, p *scenario.OverloadProfile) {
	dc.Admission = datawa.AdmissionConfig{
		MaxOpenTasks:       p.MaxOpenTasks,
		MaxSubmitsPerEpoch: p.MaxSubmitsPerEpoch,
		DeferSlack:         p.DeferSlack,
	}
	dc.Governor = datawa.GovernorConfig{
		Budget: p.BudgetUnits, Window: p.Window, Dwell: p.Dwell,
		Cost: func(_ int, _ time.Duration, workers, open int) float64 {
			return float64(workers * open)
		},
	}
}

// quiesceEpochs bounds the post-replay drain of an overload cell. Deferred
// tasks shed once their slack runs out (≤ TaskValid/Step epochs) and governor
// recovery needs a few full windows of idle epochs, so real convergence is
// tens of epochs; the bound only stops a broken build from spinning forever.
const quiesceEpochs = 512

func rate(assigned, tasks int) float64 {
	if tasks == 0 {
		return 0
	}
	return float64(assigned) / float64(tasks)
}

func perSec(events int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}

// Validate checks the report's structure against the schema: version tag,
// non-empty results, and per-cell field sanity. It does not compare against
// another snapshot — that is Compare's job.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("nil report")
	}
	legacy := false
	for _, s := range legacySchemas {
		if r.Schema == s {
			legacy = true
			break
		}
	}
	if r.Schema != Schema && !legacy {
		return fmt.Errorf("schema %q, want %q (or legacy %v)", r.Schema, Schema, legacySchemas)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("report has no results")
	}
	for i, c := range r.Results {
		where := fmt.Sprintf("results[%d] (%s %gx %s)", i, c.Scenario, c.Scale, c.Method)
		if c.Scenario == "" || c.Method == "" {
			return fmt.Errorf("%s: missing scenario or method", where)
		}
		if c.Scale <= 0 || math.IsNaN(c.Scale) {
			return fmt.Errorf("%s: bad scale", where)
		}
		if tp := c.Transport; tp != "" && tp != TransportJSON && tp != TransportStream {
			return fmt.Errorf("%s: unknown transport %q", where, tp)
		}
		if c.Workers <= 0 || c.Tasks <= 0 {
			return fmt.Errorf("%s: empty population", where)
		}
		// fidelity_gap arrived with schema version 2; v1 reports carry the
		// zero value, which would fail the consistency check.
		if r.Schema != schemaV1 {
			if gap := c.Offline.AssignmentRate - c.Live.AssignmentRate; math.Abs(gap-c.FidelityGap) > 1e-9 {
				return fmt.Errorf("%s: fidelity_gap %v inconsistent with offline−live rates (%v)", where, c.FidelityGap, gap)
			}
		}
		for _, p := range []struct {
			name string
			p    Path
			live bool
		}{{"offline", c.Offline, false}, {"live", c.Live, true}} {
			if p.p.AssignmentRate < 0 || p.p.AssignmentRate > 1 || math.IsNaN(p.p.AssignmentRate) {
				return fmt.Errorf("%s: %s assignment_rate %v out of [0,1]", where, p.name, p.p.AssignmentRate)
			}
			if p.p.Assigned+p.p.Expired > c.Tasks {
				return fmt.Errorf("%s: %s assigned+expired %d exceeds %d tasks", where, p.name, p.p.Assigned+p.p.Expired, c.Tasks)
			}
			if p.p.Assigned < 0 || p.p.Expired < 0 || p.p.PlanCalls <= 0 || p.p.WallMS < 0 {
				return fmt.Errorf("%s: %s has negative or zero counters", where, p.name)
			}
			if p.live {
				if p.p.Epochs <= 0 || p.p.Shards <= 0 {
					return fmt.Errorf("%s: live path missing epochs/shards", where)
				}
				if p.p.EpochP50NS > p.p.EpochP95NS || p.p.EpochP95NS > p.p.EpochP99NS || p.p.EpochP50NS < 0 {
					return fmt.Errorf("%s: epoch percentiles not monotone", where)
				}
			}
		}
		// Overload cells quiesce to a full drain before measurement, so the
		// conservation identity must hold exactly in the committed snapshot.
		if c.Overload {
			terminal := c.Live.Assigned + c.Live.Expired + c.Live.Cancelled + int(c.Live.Shed)
			if terminal != c.Tasks {
				return fmt.Errorf("%s: overload cell breaks task conservation: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d",
					where, c.Live.Assigned, c.Live.Expired, c.Live.Cancelled, c.Live.Shed, terminal, c.Tasks)
			}
		}
	}
	return nil
}

// Compare gates a new report against a baseline snapshot: for every cell
// present in both (matched by scenario, scale, method), the offline and live
// assignment rates may not drop by more than maxRelDrop (e.g. 0.10 = 10%)
// relative to the baseline, and the live path's epoch p95 latency may not
// grow by more than maxRelP95 (e.g. 0.50 = 50%; ≤ 0 disables the latency
// gate). Two silent-degradation gates ride along: a cell whose baseline
// never shed a task (Shed == 0) or never demoted its planner
// (TierDemotions == 0) fails if the candidate starts doing either — shedding
// and tier demotion buy rate and latency by giving up completeness or plan
// quality, exactly what the rate and latency gates cannot see. Chaos cells
// carry non-zero baseline counters, so they pass by construction.
// The latency threshold is deliberately separate and looser than the
// rate threshold: assignment rates are deterministic, so any drop is a real
// behavior change, while p95 carries host jitter — the gate exists to catch
// order-of-magnitude epoch blowups that a rate-only gate would wave
// through, not single-digit noise. For cells whose baseline p95 is under
// ten milliseconds, growth is measured against a 10 ms floor instead of the
// raw baseline: run-to-run variance reaches 2x there and the baseline
// snapshot may come from a faster host, so a purely relative bound would
// gate on noise — but a lightweight cell regressing to hundreds of
// milliseconds still fails. Wall-clock throughput and allocation figures
// never gate. It returns the number of cells compared.
//
// Coverage is also gated: a baseline cell whose scenario, scale, and method
// all lie inside the candidate's axes (the scenario set present in its
// results, its echoed Scales and Methods) must appear in the candidate — a
// cell silently vanishing from a rerun of the same configuration is a
// regression, not a skip. Baseline cells outside the candidate's axes (a CI
// run at 1x compared against a 1x+5x snapshot, a methods subset) are
// legitimately absent and don't count.
func Compare(base, cur *Report, maxRelDrop, maxRelP95 float64) (int, error) {
	if err := base.Validate(); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return 0, fmt.Errorf("new report: %w", err)
	}
	// Cells match on scenario, scale, method, and transport — with the empty
	// (pre-v5) transport normalized to "json", so a pre-stream baseline's
	// cells gate the candidate's per-event cells and its stream cells ride
	// along ungated until a stream-bearing snapshot becomes the baseline.
	key := func(c Cell) string {
		return fmt.Sprintf("%s|%g|%s|%s", c.Scenario, c.Scale, c.Method, normTransport(c.Transport))
	}
	baseBy := make(map[string]Cell, len(base.Results))
	for _, c := range base.Results {
		baseBy[key(c)] = c
	}
	curBy := make(map[string]bool, len(cur.Results))
	curScenarios := make(map[string]bool)
	curTransports := make(map[string]bool)
	for _, c := range cur.Results {
		curBy[key(c)] = true
		if len(cur.Scenarios) == 0 {
			// Pre-v3 candidate without the scenario echo: infer the axis.
			curScenarios[c.Scenario] = true
		}
		if len(cur.Transports) == 0 {
			// Pre-v5 candidate without the transport echo: infer the axis.
			curTransports[normTransport(c.Transport)] = true
		}
	}
	for _, name := range cur.Scenarios {
		curScenarios[name] = true
	}
	for _, tp := range cur.Transports {
		curTransports[normTransport(tp)] = true
	}
	curScales := make(map[float64]bool, len(cur.Scales))
	for _, f := range cur.Scales {
		curScales[f] = true
	}
	curMethods := make(map[string]bool, len(cur.Methods))
	for _, m := range cur.Methods {
		curMethods[m] = true
	}
	var missing []string
	for _, b := range base.Results {
		if curScenarios[b.Scenario] && curScales[b.Scale] && curMethods[b.Method] &&
			curTransports[normTransport(b.Transport)] && !curBy[key(b)] {
			missing = append(missing, key(b))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return 0, fmt.Errorf("%d baseline cell(s) inside the new report's scenario/scale/method axes are missing from it: %v",
			len(missing), missing)
	}
	compared := 0
	var regressions []string
	for _, c := range cur.Results {
		b, ok := baseBy[key(c)]
		if !ok {
			continue
		}
		compared++
		check := func(path string, baseRate, curRate float64) {
			if baseRate > 0 && curRate < baseRate*(1-maxRelDrop) {
				regressions = append(regressions, fmt.Sprintf(
					"%s %gx %s %s: assignment rate %.3f → %.3f (>%.0f%% drop)",
					c.Scenario, c.Scale, c.Method, path, baseRate, curRate, 100*maxRelDrop))
			}
		}
		check("offline", b.Offline.AssignmentRate, c.Offline.AssignmentRate)
		check("live", b.Live.AssignmentRate, c.Live.AssignmentRate)
		baseP95 := b.Live.EpochP95NS
		if baseP95 < p95GateFloorNS {
			baseP95 = p95GateFloorNS
		}
		// No b.EpochP95NS > 0 guard: the floor already turns a degenerate
		// zero baseline into a 1 ms allowance instead of disabling the gate.
		if maxRelP95 > 0 &&
			float64(c.Live.EpochP95NS) > float64(baseP95)*(1+maxRelP95) {
			regressions = append(regressions, fmt.Sprintf(
				"%s %gx %s live: epoch p95 %v → %v (>%.0f%% growth over max(baseline, %v))",
				c.Scenario, c.Scale, c.Method,
				time.Duration(b.Live.EpochP95NS), time.Duration(c.Live.EpochP95NS),
				100*maxRelP95, time.Duration(p95GateFloorNS)))
		}
		// Silent-degradation gates: a cell that never shed tasks or demoted
		// its planner in the baseline must not start doing so — either would
		// quietly trade completeness or plan quality for the rate and latency
		// numbers the gates above watch. Chaos cells shed and demote by
		// design, so their baselines carry non-zero counters and pass.
		if b.Live.Shed == 0 && c.Live.Shed > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s %gx %s live: began shedding tasks (0 → %d)",
				c.Scenario, c.Scale, c.Method, c.Live.Shed))
		}
		if b.Live.TierDemotions == 0 && c.Live.TierDemotions > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s %gx %s live: governor began demoting the planner (0 → %d demotions)",
				c.Scenario, c.Scale, c.Method, c.Live.TierDemotions))
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no overlapping cells between the reports — scenario or method sets diverged")
	}
	if len(regressions) > 0 {
		msg := ""
		for _, line := range regressions {
			msg += "\n  " + line
		}
		return compared, fmt.Errorf("%d regression(s):%s", len(regressions), msg)
	}
	return compared, nil
}
