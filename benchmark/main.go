// Command benchmark is the repository's benchmark: it replays four generated
// workloads through the live path a client sees — wire.AppendFrame →
// wire.DecodeFrame → Dispatcher.IngestBatch → Dispatcher.Tick — prints every
// metric BENCHMARK.json declares, checks the outputs, and exits non-zero when
// a check fails. README.md defines the metrics and explains the workloads.
//
//	benchmark -workload spike-search -seed 1 -seconds 15 -trace 0
//
// -trace 0 measures the end-to-end metrics with every recorder off; -trace 1
// runs one plain and one traced replay, probes the planning layers at the
// trace's crowd instants, writes the spans to
// benchmark/out/trace-<workload>.json and reports the per-layer metrics.
// Without -workload every workload runs, each in a process of its own so that
// peak memory is per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"

	datawa "repro"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// traceDir receives the span files of traced runs, relative to the root of
// the checkout the command runs from.
const traceDir = "benchmark/out"

// minReplays is the fewest rounds of a run: the per-epoch minimum needs two
// observations of each epoch, and so does the check that replays end in
// identical state.
const minReplays = 2

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the command reports, in
// BENCHMARK.json order; the package tests hold the two files to each other.
var endToEnd = []metricDef{
	{"epoch_p50_ms", "ms"},
	{"epoch_p95_ms", "ms"},
	{"events_per_s", "1/s"},
	{"cpu_ms_per_event", "ms"},
	{"assigned_pct", "%"},
	{"ok_pct", "%"},
	{"allocs_per_event", "count"},
	{"alloc_kb_per_event", "KB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"wire.encode_ns_per_event", "ns"},
	{"wire.decode_ns_per_event", "ns"},
	{"wire.bytes_per_event", "B"},
	{"dispatch.ingest_ns_per_event", "ns"},
	{"dispatch.tick_ms_total", "ms"},
	{"dispatch.drain_ms_total", "ms"},
	{"dispatch.admission_ms_total", "ms"},
	{"dispatch.reghost_ms_total", "ms"},
	{"dispatch.arbitration_ms_total", "ms"},
	{"dispatch.other_ms_total", "ms"},
	{"dispatch.step_ms_total", "ms"},
	{"dispatch.shard_skew", "ratio"},
	{"dispatch.forecast_ms_total", "ms"},
	{"stream.repositions", "count"},
	{"dispatch.queue_depth_max", "count"},
	{"dispatch.unroutable", "count"},
	{"dispatch.ghost_copies", "count"},
	{"dispatch.commit_conflicts", "count"},
	{"dispatch.retractions", "count"},
	{"dispatch.cancelled", "count"},
	{"stream.plan_ms_total", "ms"},
	{"stream.plan_calls", "count"},
	{"stream.step_self_ms_total", "ms"},
	{"assign.incremental_hits", "count"},
	{"assign.components_replanned", "count"},
	{"assign.reuse_ratio", "ratio"},
	{"epoch_p99_ms", "ms"},
	{"epoch_max_ms", "ms"},
	{"dispatch.snapshot_wait_p95_ms", "ms"},
	{"spatial.index_build_us", "us"},
	{"spatial.within_ns_per_query", "ns"},
	{"wds.reach_us", "us"},
	{"wds.reach_candidates", "count"},
	{"wds.sequences_us", "us"},
	{"wds.sequences", "count"},
	{"wds.separate_ms", "ms"},
	{"wds.graph_edges", "count"},
	{"wds.trees", "count"},
	{"wds.max_tree_workers", "count"},
	{"graphutil.fillin_ms", "ms"},
	{"graphutil.fill_edges", "count"},
	{"assign.search_plan_ms", "ms"},
	{"assign.search_self_ms", "ms"},
	{"assign.search_nodes", "count"},
	{"assign.greedy_plan_us", "us"},
	{"assign.tvf_plan_ms", "ms"},
	{"predict.train_demand_s", "s"},
	{"tvf.train_value_s", "s"},
	{"workload.generate_ms", "ms"},
	{"dispatch.new_ms", "ms"},
	{"warmup_s", "s"},
	{"host.spin_ms_min", "ms"},
	{"host.spin_ms_median", "ms"},
	{"host.spin_ms_max", "ms"},
	{"trace_overhead_pct", "%"},
}

// options is one run's command line.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke runs the workload's smallest trace; only the package tests set it.
	smoke bool
	// outDir receives the span file of a traced run.
	outDir string
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: every workload, one process each)")
	seed := fs.Int64("seed", 1, "input seed: selects the perturbations of the archetype trace a run replays")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed replays of a run last on the baseline host")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seed < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want -workload <name> -seed <n≥1> -seconds <s≥0> -trace <0|1>")
		return 2
	}
	if *workload == "" {
		return runAll([]string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace)}, stdout, stderr)
	}
	s, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	res, err := runWorkload(s, options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: traceDir}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, one after the
// other, and fails if any of them fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, s := range specs {
		cmd := exec.Command(self, append([]string{"-workload", s.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.name, err)
			code = 1
		}
	}
	return code
}

// prepared is a workload after set-up: traces generated, models trained,
// planner code and heap warmed.
type prepared struct {
	// trs holds the run's variants; the framework is trained on the first.
	trs []*trace
	fw  *datawa.Framework
	// ref is Framework.Run on the first trace, for workloads that check
	// against it.
	ref *datawa.Result
	// Set-up phases in seconds.
	generate, trainDemand, trainValue, newDispatcher, warmup, total float64
}

// prepare runs one complete set-up. The warm-up is a replay of the first
// trace, or of the smoke-size trace for search-heavy workloads; a workload
// with a reference computation warms up on that instead — Framework.Run
// drives the same planner, forecaster and machine code over the same trace.
func (s spec) prepare(size float64, seed int64) (*prepared, error) {
	p := &prepared{}
	start := time.Now()
	p.trs = s.traces(size, seed)
	p.generate = time.Since(start).Seconds()
	tr := p.trs[0]
	var err error
	if p.fw, p.trainDemand, p.trainValue, err = s.framework(tr); err != nil {
		return nil, err
	}
	var d *datawa.Dispatcher
	if p.newDispatcher, err = timed(func() (err error) {
		d, err = s.dispatcher(p.fw, tr, datawa.ObsConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	p.warmup, err = timed(func() error {
		switch {
		case s.reference:
			ref, err := p.fw.Run(s.method, tr.sc.Workers, tr.sc.Tasks, tr.t0, tr.t1)
			p.ref = &ref
			return err
		case s.warmSmoke && size > s.smoke:
			// The models are trained on the full-size history; they serve the
			// smoke-size stream of the same region just as well for a warm-up.
			small := s.generate(s.smoke, 0)
			if d, err = s.dispatcher(p.fw, small, datawa.ObsConfig{}); err != nil {
				return err
			}
			runReplay(d, small, s.step, nil)
		default:
			runReplay(d, tr, s.step, nil)
		}
		return nil
	})
	p.total = time.Since(start).Seconds()
	return p, err
}

// timed runs fn and returns how long it took in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// runWorkload is one run of one workload: set-up, replays, checks, metrics.
func runWorkload(s spec, o options, out io.Writer) (result, error) {
	size := s.size
	if o.smoke {
		size = s.smoke
	}
	setups := s.setups
	if o.trace || o.smoke {
		setups = 1
	}
	var (
		p       *prepared
		setupsS []float64
		can     canary
	)
	can.read()
	for i := 0; i < setups; i++ {
		var err error
		if p, err = s.prepare(size, o.seed); err != nil {
			return result{}, err
		}
		setupsS = append(setupsS, p.total)
		can.read()
	}
	tr := p.trs[0]
	fmt.Fprintf(out, "workload %s seed %d: %d variant(s) of %d worker segments, %d tasks, %d events, %d epochs of %g s; %s on %d shard(s); %s %s/%s GOMAXPROCS %d\n",
		s.name, o.seed, len(p.trs), len(tr.sc.Workers), len(tr.sc.Tasks), len(tr.events), tr.epochs(s.step), s.step, s.method, s.shards,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "set-up %d× median %.3f s (generate %.3f, train demand %.3f, train value %.3f, new dispatcher %.4f, warm-up %.3f)\n",
		setups, median(setupsS), p.generate, p.trainDemand, p.trainValue, p.newDispatcher, p.warmup)

	var (
		chk     checker
		metrics map[string]float64
		defs    []metricDef
		runs    [][]replay // per variant, the replays of its trace
		err     error
	)
	if o.trace {
		defs = perLayer
		metrics, runs, err = traced(s, p, o, &chk, &can, out)
	} else {
		defs = endToEnd
		metrics, runs, err = untraced(s, p, o, &can, out)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: make(map[string]value, len(defs))}
	for v, replays := range runs {
		tr := p.trs[v]
		for i, r := range replays {
			chk.checkReplay(fmt.Sprintf("variant %d replay %d", v, i), r, len(tr.sc.Tasks), tr.epochs(s.step))
			if i > 0 {
				chk.checkSame(fmt.Sprintf("variant %d replay %d vs replay 0", v, i), replays[0], r)
			}
			res.Attempted += len(tr.events)
			res.Failed += failedOps(r, len(tr.sc.Tasks))
		}
	}
	if p.ref != nil {
		chk.checkReference(runs[0][0], *p.ref)
	}
	if !o.trace {
		metrics["ok_pct"] = 100 * (1 - float64(res.Failed)/float64(res.Attempted))
		metrics["setup_s"] = median(setupsS)
		calibrate(metrics, can.factor(), out)
	}
	res.Correct = len(chk.failures) == 0
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}

	spins := sortedCopy(can.readings)
	fmt.Fprintf(out, "host canary: %d readings, min %.1f median %.1f max %.1f ms\n",
		len(spins), spins[0], percentile(spins, 0.5), spins[len(spins)-1])
	if can.noisy() {
		fmt.Fprintf(out, "WARNING: host canary max/min = %.2f > 1.10 — the host's speed changed during this run\n", spins[len(spins)-1]/spins[0])
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "checks: %d operations attempted, %d failed (failed_pct %.4f)\n",
		res.Attempted, res.Failed, 100*float64(res.Failed)/float64(res.Attempted))
	for i, f := range chk.failures {
		if i == 20 {
			fmt.Fprintf(out, "CHECK FAILED: … and %d more\n", len(chk.failures)-i)
			break
		}
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	return res, nil
}

// calibrate restates the time metrics of m as they would read on the
// uncontended baseline host: times are divided by the run's host factor,
// rates multiplied. The values as measured on this host are printed.
func calibrate(m map[string]float64, factor float64, out io.Writer) {
	fmt.Fprintf(out, "host factor %.4f; as measured on this host:", factor)
	for _, name := range []string{"epoch_p50_ms", "epoch_p95_ms", "cpu_ms_per_event", "setup_s"} {
		fmt.Fprintf(out, " %s %.6g", name, m[name])
		m[name] /= factor
	}
	fmt.Fprintf(out, " events_per_s %.6g\n", m["events_per_s"])
	m["events_per_s"] *= factor
}

// untraced measures the end-to-end metrics. A round replays every variant
// once, each through a fresh dispatcher with every recorder off; the run does
// as many rounds as fit in o.seconds at the workload's nominal rate. The time
// estimators first take, per variant and epoch, the minimum Tick time over the
// rounds, then read percentiles and sums off the pooled denoised epochs of all
// variants.
func untraced(s spec, p *prepared, o options, can *canary, out io.Writer) (map[string]float64, [][]replay, error) {
	runs := make([][]replay, len(p.trs))
	var roundWall, roundP50, roundP95 []float64
	start := time.Now()
	for rounds := max(minReplays, int(o.seconds/s.roundSeconds)); rounds > 0; rounds-- {
		var wall float64
		var pooled []int64
		for v, tr := range p.trs {
			d, err := s.dispatcher(p.fw, tr, datawa.ObsConfig{})
			if err != nil {
				return nil, nil, err
			}
			r := runReplay(d, tr, s.step, nil)
			runs[v] = append(runs[v], r)
			wall += r.wall.Seconds()
			pooled = append(pooled, r.tickNS...)
			can.read()
		}
		series := msSeries(pooled)
		roundWall = append(roundWall, wall)
		roundP50 = append(roundP50, percentile(series, 0.50))
		roundP95 = append(roundP95, percentile(series, 0.95))
	}

	var (
		pooled                        []int64
		events, submitted, assigned   int
		attempted                     int
		mallocs, allocBytes           uint64
		cpu                           time.Duration
		tickNS, ingestNS              int64
		encodeNS, decodeNS, ingestAll int64
	)
	for v, replays := range runs {
		tr := p.trs[v]
		events += len(tr.events)
		submitted += len(tr.sc.Tasks)
		assigned += replays[0].end.Assigned
		ticks := make([][]int64, len(replays))
		ingest := replays[0].decodeNS + replays[0].ingestNS
		for i, r := range replays {
			ticks[i] = r.tickNS
			ingest = min(ingest, r.decodeNS+r.ingestNS)
			attempted += len(tr.events)
			mallocs += r.mallocs
			allocBytes += r.allocBytes
			cpu += r.cpu
			encodeNS, decodeNS, ingestAll = encodeNS+r.encodeNS, decodeNS+r.decodeNS, ingestAll+r.ingestNS
		}
		den := epochMinimum(ticks)
		pooled = append(pooled, den...)
		tickNS += sumNS(den)
		ingestNS += ingest
	}
	series := msSeries(pooled)
	m := map[string]float64{
		"epoch_p50_ms":       percentile(series, 0.50),
		"epoch_p95_ms":       percentile(series, 0.95),
		"events_per_s":       float64(events) / (float64(tickNS+ingestNS) / 1e9),
		"cpu_ms_per_event":   ms(cpu) / float64(attempted),
		"assigned_pct":       100 * float64(assigned) / float64(submitted),
		"allocs_per_event":   float64(mallocs) / float64(attempted),
		"alloc_kb_per_event": float64(allocBytes) / 1024 / float64(attempted),
		"peak_rss_mb":        peakRSSMB(),
	}
	n := len(series)
	fmt.Fprintf(out, "%d rounds over %d variant(s) in %.2f s; denoised series: %d epochs, %d above p95\n",
		len(roundWall), len(p.trs), time.Since(start).Seconds(), n, n-int(math.Ceil(0.95*float64(n))))
	fmt.Fprintf(out, "per round (quartiles): replay wall %s s, epoch p50 %s ms, epoch p95 %s ms\n",
		quartiles(roundWall), quartiles(roundP50), quartiles(roundP95))
	fmt.Fprintf(out, "per event over all replays: encode %.1f ns, decode %.1f ns, ingest %.1f ns\n",
		float64(encodeNS)/float64(attempted), float64(decodeNS)/float64(attempted), float64(ingestAll)/float64(attempted))
	fmt.Fprintf(out, "outcome at T1: assigned %d of %d tasks\n", assigned, submitted)
	return m, runs, nil
}

// quartiles renders the first quartile, median and third quartile of v.
func quartiles(v []float64) string {
	s := sortedCopy(v)
	return fmt.Sprintf("[%.4g %.4g %.4g]", percentile(s, 0.25), percentile(s, 0.50), percentile(s, 0.75))
}
