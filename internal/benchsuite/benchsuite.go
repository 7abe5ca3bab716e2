// Package benchsuite runs the scenario-atlas benchmark suite: every
// registered archetype (internal/scenario) × assignment method × density
// scale, each replayed through both the offline stream engine
// (datawa.Framework.Run) and the live dispatch path (dispatch.LoadGen over a
// sharded Dispatcher, through the batched wire path a /v1/stream client
// uses). The result is a Report — the one BENCH_<pr>.json snapshot at the
// repo root — recording assignment outcomes beside throughput, epoch latency
// percentiles and allocations.
//
// Chaos archetypes (scenario.Archetype.Overload != nil) run their live path
// under the archetype's admission-control and governor profile, the governor
// costing epochs in counted planner work, then quiesce to a full drain; their
// cells are marked overload and must satisfy exact task conservation
// (assigned + expired + cancelled + shed == tasks), which Validate enforces
// on every load and Run enforces at generation time. The offline/live
// fidelity gate skips them — shedding makes the two paths diverge by design.
//
// Outcomes (assigned/expired counts, plan calls, epochs, the admission and
// governor counters) are deterministic given the archetype seed, at every
// GOMAXPROCS and on every machine; wall-clock and allocation figures
// are informational and host-dependent. Compare therefore gates the outcomes
// on exact equality and — with a tolerance — the live path's epoch p95
// latency, so a perf PR cannot silently trade epoch latency for throughput.
// Timing claims are made on the repository benchmark (benchmark/), not here.
// docs/BENCHMARKS.md documents the schema and the regeneration policy.
package benchsuite

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/dispatch"
	"repro/internal/scenario"
)

// Schema identifies the Report wire format, and Validate accepts no other:
// the repo carries one snapshot, regenerated whenever the format or an
// outcome changes, so there is no older file to keep loadable. Bump the
// suffix on any incompatible change and regenerate the snapshot with it.
const Schema = "datawa-bench-suite/8"

// p95GateFloorNS clamps the baseline of Compare's latency gate from below:
// growth is measured relative to max(baseline, 10 ms). Epoch latencies are
// wall-clock — run-to-run variance reaches 2x on µs-scale cells and the
// committed snapshot may come from a faster host than the CI runner — so a
// purely relative threshold on small baselines would gate on scheduler and
// hardware noise. The floor widens the allowance instead of exempting the
// cell: a lightweight cell blowing up past ~15 ms still fails, while the
// cells above the floor — the 5x flash crowds, tens of ms — are gated at the
// tolerance itself.
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
	// Step is the planning epoch length in seconds (default 2).
	Step float64
	// Shards is the live path's dispatcher shard count (default 2).
	Shards int
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
	// Scenarios, Scales, Methods, Step and Shards echo the options that
	// produced the report, Parallelism the GOMAXPROCS that bounded the live
	// path's shard fan-out. The first three are the axes Compare holds a
	// narrowed rerun to; Step and Shards must match the baseline's.
	Scenarios   []string  `json:"scenarios"`
	Scales      []float64 `json:"scales"`
	Methods     []string  `json:"methods"`
	Step        float64   `json:"step_seconds"`
	Shards      int       `json:"shards"`
	Parallelism int       `json:"parallelism"`
	// Samples and CVaRAlpha echo the SSP sampling options; absent when no
	// SSP cells were requested.
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
	// admission-control and governor profile (scenario.OverloadProfile), the
	// governor costing epochs in counted planner work, then quiesced to a full
	// drain. Validate asserts exact task conservation on these cells.
	Overload bool `json:"overload,omitempty"`
	// Samples and CVaRAlpha echo the sampling configuration of an SSP cell:
	// the demand futures drawn per forecast instant and the CVaR risk knob
	// (0 = expected value). Zero on non-SSP cells.
	Samples   int     `json:"samples,omitempty"`
	CVaRAlpha float64 `json:"cvar_alpha,omitempty"`
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
		Step:        opts.Step,
		Shards:      opts.Shards,
		Parallelism: runtime.GOMAXPROCS(0),
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
				cell, err := runCell(arch, sc, f, datawa.Method(method), opts)
				if err != nil {
					return nil, fmt.Errorf("benchsuite: %s %gx %s: %w", name, f, method, err)
				}
				r.Results = append(r.Results, cell)
				chaos := ""
				if cell.Overload {
					chaos = fmt.Sprintf(" | shed %d deferred %d tier↓%d↑%d worst %d",
						cell.Live.Shed, cell.Live.Deferred,
						cell.Live.TierDemotions, cell.Live.TierPromotions, cell.Live.WorstTier)
				}
				opts.Log("%-13s %4gx %-8s offline %5.1f%% %8.0f ev/s | live %5.1f%% %8.0f ev/s gap %+5.1fpp p95 %s%s",
					name, f, method,
					100*cell.Offline.AssignmentRate, cell.Offline.EventsPerSec,
					100*cell.Live.AssignmentRate, cell.Live.EventsPerSec,
					100*cell.FidelityGap,
					time.Duration(cell.Live.EpochP95NS).Round(time.Microsecond), chaos)
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

// runCell measures one scenario × scale × method through both paths.
func runCell(arch scenario.Archetype, sc *datawa.Scenario, f float64, m datawa.Method, opts Options) (Cell, error) {
	cell := Cell{
		Scenario: arch.Name, Scale: f, Method: string(m),
		Workers: len(sc.Workers), Tasks: len(sc.Tasks),
	}
	if m == datawa.MethodSSP {
		cell.Samples = opts.Samples
		cell.CVaRAlpha = opts.CVaRAlpha
	}
	events := len(sc.Workers) + len(sc.Tasks)
	var m0, m1 runtime.MemStats

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

	// Live: the same trace through the sharded dispatch service. A fresh
	// framework keeps any forecaster state of the offline run out of the
	// measurement.
	fw, err = framework(sc, m, opts)
	if err != nil {
		return Cell{}, err
	}
	dc := datawa.DispatchConfig{Shards: opts.Shards, Step: opts.Step, Now: sc.T0}
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
	// LoadGen drives the batched wire path (encode → frame → decode →
	// IngestBatch), what benchmark/ and a /v1/stream client drive. Outcomes
	// do not depend on the transport (dispatch.TestTransportEquivalence).
	g := dispatch.LoadGen{Events: sc.Events(), T1: sc.T1}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	lr := g.Run(d)
	// Read before the overload drain and audit below: wall_ms and
	// events_per_sec come from lr and cover the replay alone, and the
	// allocation figures must cover the same interval.
	runtime.ReadMemStats(&m1)
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
// configuration. The governor costs epochs in counted planner work, so tier
// transitions — and therefore the whole cell — replay byte-identically on
// every host.
func applyOverload(dc *datawa.DispatchConfig, p *scenario.OverloadProfile) {
	dc.Admission = datawa.AdmissionConfig{
		MaxOpenTasks:       p.MaxOpenTasks,
		MaxSubmitsPerEpoch: p.MaxSubmitsPerEpoch,
		DeferSlack:         p.DeferSlack,
	}
	dc.Governor = datawa.GovernorConfig{Budget: p.BudgetUnits}
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

// Load reads a report from path and validates it. The decoder refuses any key
// this schema lacks, so a file of an earlier schema — a cell tagged with the
// ingest transport of schema 6, a path counting incremental_hits — fails to
// load instead of decoding as if the key were absent.
func Load(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Report
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Validate checks the report's structure against the schema: version tag,
// non-empty results, and per-cell field sanity. It does not compare against
// another snapshot — that is Compare's job.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("nil report")
	}
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
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
		if c.Workers <= 0 || c.Tasks <= 0 {
			return fmt.Errorf("%s: empty population", where)
		}
		if gap := c.Offline.AssignmentRate - c.Live.AssignmentRate; !(math.Abs(gap-c.FidelityGap) <= 1e-9) {
			return fmt.Errorf("%s: fidelity_gap %v inconsistent with offline−live rates (%v)", where, c.FidelityGap, gap)
		}
		for _, p := range []struct {
			name string
			p    Path
			live bool
		}{{"offline", c.Offline, false}, {"live", c.Live, true}} {
			// The rates and the gap are functions of the counts; holding them
			// to the counts here is what lets Compare gate the counts alone.
			if want := rate(p.p.Assigned, c.Tasks); !(math.Abs(p.p.AssignmentRate-want) <= 1e-9) {
				return fmt.Errorf("%s: %s assignment_rate %v is not assigned/tasks (%v)", where, p.name, p.p.AssignmentRate, want)
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

// outcomeFields are the cell fields Compare holds to exact equality: every
// one is a function of the archetype seed and the echoed configuration alone,
// identical at every parallelism and on every host. assignment_rate and
// fidelity_gap are left out because Validate derives them from these.
var outcomeFields = []struct {
	name string
	get  func(*Cell) int64
}{
	{"workers", func(c *Cell) int64 { return int64(c.Workers) }},
	{"tasks", func(c *Cell) int64 { return int64(c.Tasks) }},
	{"overload", func(c *Cell) int64 {
		if c.Overload {
			return 1
		}
		return 0
	}},
	{"offline.assigned", func(c *Cell) int64 { return int64(c.Offline.Assigned) }},
	{"offline.expired", func(c *Cell) int64 { return int64(c.Offline.Expired) }},
	{"offline.plan_calls", func(c *Cell) int64 { return int64(c.Offline.PlanCalls) }},
	{"live.assigned", func(c *Cell) int64 { return int64(c.Live.Assigned) }},
	{"live.expired", func(c *Cell) int64 { return int64(c.Live.Expired) }},
	{"live.plan_calls", func(c *Cell) int64 { return int64(c.Live.PlanCalls) }},
	{"live.epochs", func(c *Cell) int64 { return int64(c.Live.Epochs) }},
	{"live.cancelled", func(c *Cell) int64 { return int64(c.Live.Cancelled) }},
	{"live.shed", func(c *Cell) int64 { return c.Live.Shed }},
	{"live.deferred", func(c *Cell) int64 { return c.Live.Deferred }},
	{"live.tier_demotions", func(c *Cell) int64 { return c.Live.TierDemotions }},
	{"live.tier_promotions", func(c *Cell) int64 { return c.Live.TierPromotions }},
	{"live.worst_tier", func(c *Cell) int64 { return int64(c.Live.WorstTier) }},
}

// Compare gates a new report against a baseline snapshot. Cells are matched
// by scenario, scale and method, and for every matched cell each of
// outcomeFields must be equal: outcomes are deterministic, so any difference
// is a behavior change, and the PR that intends one regenerates the snapshot.
// The live path's epoch p95 may not grow by more than maxRelP95 (e.g. 0.50 =
// 50%; ≤ 0 disables the latency gate) over max(baseline, 10 ms) — see
// p95GateFloorNS; the gate exists to catch epoch blowups, not host jitter.
// Every other wall-clock and allocation figure is ungated. It returns the
// number of cells compared.
//
// The two reports must have run the same configuration — shards, epoch
// length and, on SSP cells, the sampling pair — or their outcomes are not
// comparable at all, and that is an error rather than a list of differences.
//
// Coverage is also gated: a baseline cell whose scenario, scale, and method
// all lie inside the candidate's echoed axes must appear in the candidate — a
// cell silently vanishing from a rerun of the same configuration is a
// regression, not a skip. Baseline cells outside the candidate's axes (a CI
// run at 1x compared against the 1x+5x snapshot, a methods subset) are
// legitimately absent and don't count.
func Compare(base, cur *Report, maxRelP95 float64) (int, error) {
	if err := base.Validate(); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return 0, fmt.Errorf("new report: %w", err)
	}
	if base.Shards != cur.Shards || base.Step != cur.Step {
		return 0, fmt.Errorf("configurations differ: baseline ran %d shards at %gs epochs, new report %d at %gs",
			base.Shards, base.Step, cur.Shards, cur.Step)
	}
	key := func(c Cell) string {
		return fmt.Sprintf("%s|%g|%s", c.Scenario, c.Scale, c.Method)
	}
	baseBy := make(map[string]*Cell, len(base.Results))
	for i := range base.Results {
		baseBy[key(base.Results[i])] = &base.Results[i]
	}
	curBy := make(map[string]bool, len(cur.Results))
	for _, c := range cur.Results {
		curBy[key(c)] = true
	}
	var missing []string
	for _, b := range base.Results {
		if slices.Contains(cur.Scenarios, b.Scenario) && slices.Contains(cur.Scales, b.Scale) &&
			slices.Contains(cur.Methods, b.Method) && !curBy[key(b)] {
			missing = append(missing, key(b))
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		return 0, fmt.Errorf("%d baseline cell(s) inside the new report's scenario/scale/method axes are missing from it: %v",
			len(missing), missing)
	}
	compared := 0
	var regressions []string
	for i := range cur.Results {
		c := &cur.Results[i]
		b, ok := baseBy[key(*c)]
		if !ok {
			continue
		}
		if b.Samples != c.Samples || b.CVaRAlpha != c.CVaRAlpha {
			return 0, fmt.Errorf("configurations differ: %s %gx %s sampled %d futures at cvar_alpha %g in the baseline, %d at %g in the new report",
				c.Scenario, c.Scale, c.Method, b.Samples, b.CVaRAlpha, c.Samples, c.CVaRAlpha)
		}
		compared++
		for _, f := range outcomeFields {
			if was, is := f.get(b), f.get(c); was != is {
				regressions = append(regressions, fmt.Sprintf("%s %gx %s: %s %d → %d",
					c.Scenario, c.Scale, c.Method, f.name, was, is))
			}
		}
		// No b.EpochP95NS > 0 guard: the floor already turns a degenerate
		// zero baseline into a 10 ms one instead of disabling the gate.
		baseP95 := max(b.Live.EpochP95NS, p95GateFloorNS)
		if maxRelP95 > 0 &&
			float64(c.Live.EpochP95NS) > float64(baseP95)*(1+maxRelP95) {
			regressions = append(regressions, fmt.Sprintf(
				"%s %gx %s live: epoch p95 %v → %v (>%.0f%% growth over max(baseline, %v))",
				c.Scenario, c.Scale, c.Method,
				time.Duration(b.Live.EpochP95NS), time.Duration(c.Live.EpochP95NS),
				100*maxRelP95, time.Duration(p95GateFloorNS)))
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no overlapping cells between the reports — scenario or method sets diverged")
	}
	if len(regressions) > 0 {
		return compared, fmt.Errorf("%d difference(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	return compared, nil
}
