// Command datawa-serve runs the live dispatch service: a long-running
// assignment engine that ingests workers and tasks over an HTTP/JSON API,
// plans in fixed epochs sharded across the demand grid, and reports
// assigned/expired counts and epoch latency percentiles at /v1/metrics.
//
// Usage:
//
//	datawa-serve -addr :8080 -method DTA -shards 4
//	datawa-serve -method DATA-WA -pretrain yueche -pretrain-scale 0.1
//	datawa-serve -max-open-tasks 5000 -epoch-budget 2000000 -span-depth 256 -pprof
//
// API (see internal/dispatch.Handler for the wire formats):
//
//	POST /v1/workers            worker online     {id, x, y, reach, avail}
//	POST /v1/workers/offline    worker offline    {id}
//	POST /v1/workers/heartbeat  position update   {id, x, y}
//	POST /v1/tasks              submit task       {id?, x, y, valid}
//	POST /v1/tasks/cancel       cancel task       {id}
//	POST /v1/stream             batched events    binary wire frames (internal/wire)
//	GET  /v1/plan?worker=ID     current schedule
//	GET  /v1/metrics            snapshot (JSON)
//	GET  /v1/trace.json?n=K     Chrome trace-event JSON of stage spans (needs -span-depth)
//	GET  /v1/tasks/{id}/history task lifecycle ledger chain (needs -ledger-tasks)
//	GET  /v1/flight             flight-recorder dumps (needs -flight-depth)
//	GET  /metrics               Prometheus text exposition (histogram-native)
//	GET  /healthz               liveness
//	GET  /debug/pprof/          profiling (needs -pprof)
//
// Overload resilience: -max-open-tasks / -max-submits / -defer-slack bound
// the ingest (admission control sheds or defers by task deadline when the
// pool saturates), and -epoch-budget arms the SLA governor that steps each
// shard's planner down the degradation ladder (full method → Greedy →
// reachability-only Match) whenever its windowed epoch-p95 planner work
// exceeds the budget, and promotes it back once the rung above, scaled by the
// work ratio the shard measured between the two rungs, fits the budget. Work
// is counted, not timed (assign.Planner.Work, in distance checks), so the
// governor decides the same on every host; a unit of it took a median 24–29 ns
// of Search's plan time on 60 atlas instants on a 2-CPU Xeon (13–67 ns, p10 to
// p90), so 2,000,000 is about 50–60 ms of planning a shard an epoch.
//
// The logical clock advances one Step every Step/timescale wall seconds:
// -timescale 60 replays a minute of scenario time per wall second.
//
// An epoch's shards step on up to GOMAXPROCS goroutines at once
// (GOMAXPROCS=4 datawa-serve -shards 4); the plans are the same at every
// GOMAXPROCS.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/dispatch"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		method    = flag.String("method", "DTA", "one of "+datawa.MethodList())
		shards    = flag.Int("shards", 4, "region shards planned in parallel")
		step      = flag.Float64("step", 1, "epoch length in logical seconds")
		timescale = flag.Float64("timescale", 1, "logical seconds per wall second")
		speed     = flag.Float64("speed", 0.01, "worker travel speed in km/s")
		minX      = flag.Float64("minx", 0, "region min x (km)")
		minY      = flag.Float64("miny", 0, "region min y (km)")
		maxX      = flag.Float64("maxx", 4, "region max x (km)")
		maxY      = flag.Float64("maxy", 4, "region max y (km)")
		rows      = flag.Int("rows", 6, "demand grid rows")
		cols      = flag.Int("cols", 6, "demand grid cols")
		pretrain  = flag.String("pretrain", "", "train demand/value models on a synthetic scenario first: yueche | didi")
		preScale  = flag.Float64("pretrain-scale", 0.1, "pretraining workload scale factor in (0,1]")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		samples   = flag.Int("samples", 0, "SSP: demand futures sampled per forecast instant (0 = default 5; 1 = point forecast)")
		cvarAlpha = flag.Float64("cvar-alpha", 0, "SSP: CVaR risk knob in (0,1] — commit the plan maximizing the mean value over the worst ceil(alpha*K) futures (0 or 1 = expected value)")

		maxOpen    = flag.Int("max-open-tasks", 0, "admission control: open-task pool cap; newcomers displace later-deadline tasks or are shed/deferred (0 = unbounded)")
		maxSubmits = flag.Int("max-submits", 0, "admission control: task submits admitted per epoch; overflow is deferred one epoch (0 = unbounded)")
		deferSlack = flag.Float64("defer-slack", 0, "admission control: minimum remaining validity in logical seconds for a displaced task to be requeued instead of shed (0 = 2x step)")
		budget     = flag.Float64("epoch-budget", 0, "SLA governor: per-shard epoch budget in planner work units (distance checks, ~25 ns of plan time each); over-budget p95 demotes the shard's planner down the ladder (0 = governor off)")
		govWindow  = flag.Int("governor-window", 0, "SLA governor: epochs in the p95 cost window, and so the fewest a shard plans on a tier before it may promote (0 = default 16)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")

		spanDepth   = flag.Int("span-depth", 0, "stage-span ring depth in epochs served at /v1/trace.json (0 = off)")
		ledgerTasks = flag.Int("ledger-tasks", 0, "task lifecycle ledger capacity in chains served at /v1/tasks/{id}/history (0 = off)")
		flightDepth = flag.Int("flight-depth", 0, "flight recorder: epochs of spans+ledger frozen per anomaly dump, served at /v1/flight; defaults span/ledger recording on (0 = off)")
		flightDir   = flag.String("flight-dir", "", "directory to write flight-recorder dumps into as they are captured (empty = in-memory ring only)")
	)
	flag.Parse()

	fw := datawa.New(datawa.Config{
		SpeedKmPerSec: *speed,
		Region:        datawa.Rect{MinX: *minX, MinY: *minY, MaxX: *maxX, MaxY: *maxY},
		GridRows:      *rows, GridCols: *cols,
		Step: *step, Seed: *seed,
		Samples: *samples, CVaRAlpha: *cvarAlpha,
	})

	m := datawa.Method(*method)
	if m.NeedsDemand() {
		if *pretrain == "" {
			fmt.Fprintf(os.Stderr, "method %s needs trained models: pass -pretrain yueche|didi\n", m)
			os.Exit(2)
		}
		var cfg datawa.ScenarioConfig
		switch strings.ToLower(*pretrain) {
		case "yueche":
			cfg = datawa.YuecheScenario()
		case "didi":
			cfg = datawa.DiDiScenario()
		default:
			fmt.Fprintf(os.Stderr, "unknown pretrain dataset %q\n", *pretrain)
			os.Exit(2)
		}
		cfg = cfg.Scaled(*preScale)
		cfg.Seed = *seed
		sc := datawa.GenerateScenario(cfg)
		fmt.Printf("pretraining demand model on %s history (%d tasks) ...\n", cfg.Name, len(sc.History))
		if err := fw.TrainDemand(sc.History); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if m.NeedsValue() {
			fmt.Println("pretraining task value function ...")
			if err := fw.TrainValue(sc.Workers, sc.Tasks, 8); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	d, err := fw.NewDispatcher(m, datawa.DispatchConfig{
		Shards: *shards, Step: *step,
		Admission: datawa.AdmissionConfig{
			MaxOpenTasks: *maxOpen, MaxSubmitsPerEpoch: *maxSubmits, DeferSlack: *deferSlack,
		},
		Governor: datawa.GovernorConfig{
			Budget: *budget, Window: *govWindow,
		},
		Obs: datawa.ObsConfig{
			Spans: *spanDepth, LedgerTasks: *ledgerTasks,
			FlightDepth: *flightDepth, FlightDir: *flightDir,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := d.Serve(ctx, *timescale); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "epoch loop:", err)
			stop()
		}
	}()

	var handler http.Handler = dispatch.NewHandler(d)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("datawa-serve: method=%s shards=%d step=%.2gs timescale=%.2gx listening on %s\n",
		m, *shards, *step, *timescale, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	final := d.Snapshot()
	fmt.Printf("final: epochs=%d assigned=%d expired=%d cancelled=%d shed=%d deferred=%d tiers=%d/%d p50=%v p99=%v\n",
		final.Epochs, final.Assigned, final.Expired, final.Cancelled, final.Shed, final.Deferred,
		final.TierDemotions, final.TierPromotions, final.EpochP50, final.EpochP99)
}
