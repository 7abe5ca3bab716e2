// Command datawa-bench measures the DATA-WA pipeline two ways.
//
// Suite mode (-suite) runs the scenario-atlas benchmark suite: every
// registered archetype × assignment method × density scale, replayed through
// both the offline stream engine and the live sharded dispatch service. It
// writes the report that the one committed BENCH_<pr>.json snapshot at the
// repo root is a copy of; CI reruns the suite and holds every deterministic
// outcome to that snapshot exactly, the planner work each path cost included
// (see docs/BENCHMARKS.md). Wall time, throughput, epoch latency and
// allocations are recorded and never gated:
//
//	datawa-bench -suite -methods Greedy,DTA,SSP -json=BENCH_61.json
//	datawa-bench -suite -scales 1,5 -methods Greedy,DTA,SSP -compare BENCH_61.json
//	datawa-bench -suite -scales 1 -shards 4 -max-gap 0.01 -json=BENCH_fidelity.json
//	datawa-bench -validate BENCH_61.json
//
// SSP cells sample predict.DefaultSamples demand futures per forecast
// instant and commit the best expected value.
//
// Experiment mode (-run) regenerates the tables and figures of the paper's
// evaluation (Section V) on the synthetic Yueche/DiDi workloads and prints
// paper-style rows:
//
//	datawa-bench -list
//	datawa-bench -run fig7 -scale standard
//	datawa-bench -run all -scale quick -csv out/
//	datawa-bench -run fig7 -scale quick -json=BENCH_fig7.json
//
// Scales: quick (seconds per experiment), standard (minutes; the default),
// full (paper cardinalities; hours for the whole suite).
//
// -json=FILE writes one machine-readable document covering the whole run;
// "-" writes it to stdout and suppresses the text output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/benchsuite"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiment ids and exit")
		run    = flag.String("run", "", "experiment id to run, or 'all'")
		scale  = flag.String("scale", "standard", "experiment mode: quick | standard | full")
		csvDir = flag.String("csv", "", "experiment mode: also write <id>.csv files into this directory")
		points = flag.Int("points", 0, "experiment mode: override sweep points per parameter (0 = all)")

		jsonPath = flag.String("json", "", "write machine-readable results to FILE (\"-\" = stdout, text output suppressed)")

		suite     = flag.Bool("suite", false, "run the scenario-atlas benchmark suite")
		scenarios = flag.String("scenarios", "", "suite mode: comma-separated archetype names (default: all registered)")
		scales    = flag.String("scales", "1,5", "suite mode: comma-separated density multipliers")
		methods   = flag.String("methods", "Greedy,DTA", "suite mode: comma-separated assignment methods")
		shards    = flag.Int("shards", 2, "suite mode: live-path dispatcher shard count")
		step      = flag.Float64("step", 2, "suite mode: planning epoch length in seconds")
		compare   = flag.String("compare", "", "suite mode: baseline BENCH_*.json; fail unless every deterministic outcome of every shared cell, planner work included, is equal")
		maxGap    = flag.Float64("max-gap", -1, "suite mode: fail if any cell's fidelity gap (offline − live assignment rate) exceeds this (e.g. 0.01 = 1pp; negative = off)")
		validate  = flag.String("validate", "", "validate a BENCH_*.json suite report against the schema and exit")
	)
	flag.Parse()
	// A leftover positional would be a silently ignored flag: reject loudly.
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q (flags take values as -flag=VALUE or -flag VALUE)", flag.Arg(0))
	}

	switch {
	case *validate != "":
		runValidate(*validate)
	case *suite:
		runSuite(suiteOptions{
			scenarios: *scenarios, scales: *scales, methods: *methods,
			shards: *shards, step: *step,
			jsonPath: *jsonPath, compare: *compare, maxGap: *maxGap,
		})
	default:
		runExperiments(*list, *run, *scale, *csvDir, *points, *jsonPath)
	}
}

// runValidate loads a suite report and checks it against the schema.
func runValidate(path string) {
	r, err := benchsuite.Load(path)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s: schema %s, %d cells — valid\n", path, r.Schema, len(r.Results))
}

// suiteOptions carries the suite-mode flag values.
type suiteOptions struct {
	scenarios, scales, methods string
	shards                     int
	step                       float64
	jsonPath, compare          string
	maxGap                     float64
}

// runSuite executes the atlas suite, writes the report, and optionally gates
// against a baseline snapshot and against the per-cell fidelity-gap bound.
func runSuite(so suiteOptions) {
	opts := benchsuite.Options{
		Scenarios: splitList(so.scenarios),
		Methods:   splitList(so.methods),
		Shards:    so.shards,
		Step:      so.step,
	}
	// Validate -methods up front against the live registry, so a typo fails
	// in milliseconds with the current method names instead of mid-suite.
	for _, m := range opts.Methods {
		if !slices.Contains(datawa.Methods(), datawa.Method(m)) {
			fatalf("unknown -methods entry %q (methods: %s)", m, datawa.MethodList())
		}
	}
	for _, s := range splitList(so.scales) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fatalf("bad -scales entry %q: %v", s, err)
		}
		opts.Scales = append(opts.Scales, f)
	}
	quiet := so.jsonPath == "-"
	if !quiet {
		opts.Log = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}

	start := time.Now()
	report, err := benchsuite.Run(opts)
	if err != nil {
		fatalf("%v", err)
	}
	if !quiet {
		fmt.Printf("(suite: %d cells in %v)\n", len(report.Results), time.Since(start).Round(time.Millisecond))
	}
	if err := writeJSON(so.jsonPath, report); err != nil {
		fatalf("json: %v", err)
	}
	if !quiet && so.jsonPath != "" {
		fmt.Printf("wrote %s\n", so.jsonPath)
	}
	// In quiet mode stdout carries the JSON document; keep it clean.
	out := os.Stdout
	if quiet {
		out = os.Stderr
	}
	if so.maxGap >= 0 {
		var over []string
		checked := 0
		for _, c := range report.Results {
			// Chaos cells run the live path under admission control and
			// planner degradation; a gap against the ungoverned offline
			// reference is by design there, not a fidelity bug.
			if c.Overload {
				continue
			}
			checked++
			if c.FidelityGap > so.maxGap {
				over = append(over, fmt.Sprintf("%s %gx %s: gap %.1fpp", c.Scenario, c.Scale, c.Method, 100*c.FidelityGap))
			}
		}
		if len(over) > 0 {
			fatalf("fidelity gap above %.1fpp on %d cell(s): %s", 100*so.maxGap, len(over), strings.Join(over, "; "))
		}
		fmt.Fprintf(out, "fidelity: all %d non-chaos cells within %.1fpp of the offline reference\n", checked, 100*so.maxGap)
	}
	if so.compare != "" {
		base, err := benchsuite.Load(so.compare)
		if err != nil {
			fatalf("%v", err)
		}
		n, err := benchsuite.Compare(base, report)
		if err != nil {
			fatalf("compare against %s: %v", so.compare, err)
		}
		fmt.Fprintf(out, "compare against %s: %d cells equal in every deterministic outcome and in planner work\n", so.compare, n)
	}
}

// runExperiments is the paper-reproduction mode (tables and figures of
// Section V).
func runExperiments(list bool, run, scale, csvDir string, points int, jsonPath string) {
	if list || run == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nscenario atlas (use -suite):")
		for _, a := range scenario.Registry() {
			fmt.Printf("  %-20s %s\n", a.Name, a.Summary)
		}
		if run == "" && !list {
			fmt.Println("\nuse -run <id>, -run all, or -suite")
		}
		return
	}

	var s experiments.Scale
	switch strings.ToLower(scale) {
	case "quick":
		s = experiments.Quick
	case "standard":
		s = experiments.Standard
	case "full":
		s = experiments.Full
	default:
		fatalf("unknown scale %q", scale)
	}
	if points > 0 {
		s.SweepPoints = points
	}

	var todo []experiments.Experiment
	if run == "all" {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByID(run)
		if !ok {
			fatalf("unknown experiment %q (use -list)", run)
		}
		todo = []experiments.Experiment{e}
	}

	quiet := jsonPath == "-"
	report := jsonReport{Scale: scale, SweepPoints: s.SweepPoints}
	for _, e := range todo {
		start := time.Now()
		tables := e.Run(s)
		for _, t := range tables {
			if !quiet {
				fmt.Println(t.String())
			}
			if csvDir != "" {
				if err := writeCSV(csvDir, t); err != nil {
					fatalf("csv: %v", err)
				}
			}
		}
		elapsed := time.Since(start)
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.ID, Title: e.Title, ElapsedMS: elapsed.Milliseconds(), Tables: tables,
		})
		if !quiet {
			fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, report); err != nil {
			fatalf("json: %v", err)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeJSON(path string, doc any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// jsonReport is the experiment-mode -json document: one run of the paper
// suite, every table included verbatim (header + rows carry method, assigned
// count, CPU per instant, and the swept entity values), plus the scale
// settings that produced it.
type jsonReport struct {
	Scale       string           `json:"scale"`
	SweepPoints int              `json:"sweep_points,omitempty"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID        string               `json:"id"`
	Title     string               `json:"title"`
	ElapsedMS int64                `json:"elapsed_ms"`
	Tables    []*experiments.Table `json:"tables"`
}

func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := t.ID
	if strings.Contains(t.Title, "(DiDi)") {
		name += "-didi"
	} else if strings.Contains(t.Title, "(Yueche)") {
		name += "-yueche"
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(t.CSV()), 0o644)
}
