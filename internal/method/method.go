// Package method is the registry of assignment methods: the paper's five
// (Section V-B.2) and the scenario-sampling planner SSP. The datawa façade
// and the experiment harness both build their methods from it, so each is
// defined once (docs/PLANNERS.md).
package method

import (
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/tvf"
)

// The registered method names.
const (
	Greedy = "Greedy"
	FTA    = "FTA"
	DTA    = "DTA"
	DTATP  = "DTA+TP"
	DATAWA = "DATA-WA"
	SSP    = "SSP"
)

// forecast is the demand a method streams into its planning pool.
type forecast int

const (
	noForecast      forecast = iota
	pointForecast            // the demand model's thresholded prediction
	sampledForecast          // predict.DefaultSamples futures drawn around it (SSP)
)

// Env is what a method is built from: planner options, trained models and
// forecaster settings.
type Env struct {
	Opts  assign.Options
	Value *tvf.Model // the task value function; nil until trained
	// Demand is the demand model, nil until trained. Series, Window,
	// Horizon, Threshold and Validity configure the point forecaster over it
	// (predict.NewForecaster; Horizon 0 is the next vector).
	Demand              predict.Predictor
	Series              predict.SeriesConfig
	Window, Horizon     int
	Threshold, Validity float64
	// History seeds the demand feed: the tasks published before the stream.
	History []*core.Task
	// Seed seeds SSP's scenario sampler.
	Seed int64
}

type planner func(Env) assign.Planner

func greedy(e Env) assign.Planner    { return &assign.Greedy{Opts: e.Opts} }
func match(e Env) assign.Planner     { return &assign.Match{Opts: e.Opts} }
func search(e Env) assign.Planner    { return &assign.Search{Opts: e.Opts} }
func tvfSearch(e Env) assign.Planner { return &assign.Search{Opts: e.Opts, Model: e.Value} }

// ssp plans against as many futures as the sampled forecast draws: both take
// predict.DefaultSamples from here.
func ssp(e Env) assign.Planner {
	return &assign.SSP{Opts: e.Opts, Samples: predict.DefaultSamples}
}

// Row is one method: the adaptive loop of Algorithm 3 with its switches set.
type Row struct {
	Name string
	// ladder is the governor's degradation ladder, cheapest last. Its head is
	// the method's own planner — all that plans without a governor.
	ladder     []planner
	Fixed      bool // FTA semantics: a worker's plan is locked once made
	forecast   forecast
	NeedsValue bool // the planner reads Env.Value
}

// Rows is the registry: the paper's five methods in its plot order, then SSP.
var Rows = []Row{
	{Name: Greedy, ladder: []planner{greedy, match}},
	{Name: FTA, ladder: []planner{search, greedy, match}, Fixed: true},
	{Name: DTA, ladder: []planner{search, greedy, match}},
	{Name: DTATP, ladder: []planner{search, greedy, match}, forecast: pointForecast},
	{Name: DATAWA, ladder: []planner{tvfSearch, greedy, match}, forecast: pointForecast, NeedsValue: true},
	// SSP degrades through the point-forecast search first, so the first step
	// under pressure sheds the K-fold sampling cost, not the look-ahead.
	{Name: SSP, ladder: []planner{ssp, search, greedy, match}, forecast: sampledForecast},
}

// Lookup returns the row registered under name, or the zero Row (no Name, no
// ladder) when there is none.
func Lookup(name string) Row {
	for _, r := range Rows {
		if r.Name == name {
			return r
		}
	}
	return Row{}
}

// NeedsDemand reports whether the row streams a forecast over Env.Demand.
func (r Row) NeedsDemand() bool { return r.forecast != noForecast }

// Ladder builds the row's planners, head first. Planners are stateful: every
// run, shard and ladder tier gets its own.
func (r Row) Ladder(e Env) []assign.Planner {
	out := make([]assign.Planner, len(r.ladder))
	for i, tier := range r.ladder {
		out[i] = tier(e)
	}
	return out
}

// Demand builds the row's demand feed, or nil for a row without a forecast.
// A feed is one run's state: one per run.
func (r Row) Demand(e Env) *stream.DemandFeed {
	if !r.NeedsDemand() {
		return nil
	}
	point := predict.NewForecaster(e.Demand, e.Series, e.Window, e.Threshold, e.Validity)
	point.Horizon = e.Horizon
	var f stream.Forecaster = point
	if r.forecast == sampledForecast {
		f = predict.NewScenarioSampler(point, predict.DefaultSamples, e.Seed)
	}
	return stream.NewDemandFeed(f, e.History)
}
