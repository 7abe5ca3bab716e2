package predict

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// Forecaster turns a trained Predictor into a stream-time source of virtual
// tasks: at each prediction instant it bins the tasks published so far into
// the model's history window, predicts the next vector, and materializes
// cells×intervals whose probability clears the threshold. A forecast costs
// one pass over the published tasks plus one model forward, whatever the
// distance from Cfg.T0 — the series before the window is never built.
type Forecaster struct {
	// Model must only read the window Predict is handed: the Forecaster
	// rewrites the same matrices at the next instant.
	Model Predictor
	Cfg   SeriesConfig
	// History is the window length (in vectors) fed to the model.
	History int
	// Threshold is the materialization threshold (paper: 0.85).
	Threshold float64
	// ValidTime is the validity e−p given to virtual tasks, matching the
	// scenario's task validity so planners treat them like real demand.
	ValidTime float64
	// Horizon is the forecasting distance in vectors (default 1: the next
	// vector). Set 2 to predict one full interval ahead, giving workers
	// travel lead time; the model must be trained at the same horizon.
	Horizon int

	nextID int
	window []*tensor.Matrix // the History most recent vectors, reused
}

// NewForecaster wraps a trained model. idStart must be negative so virtual
// ids never collide with real task ids.
func NewForecaster(model Predictor, cfg SeriesConfig, history int, threshold, validTime float64) *Forecaster {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Forecaster{
		Model:     model,
		Cfg:       cfg,
		History:   history,
		Threshold: threshold,
		ValidTime: validTime,
		nextID:    -1,
	}
}

// Virtuals predicts the demand vector that begins at or after now and
// returns the corresponding virtual tasks. published must contain every
// real task published before now (later tasks are ignored). It returns nil
// until enough history has accumulated.
func (f *Forecaster) Virtuals(published []*core.Task, now float64) []*core.Task {
	probs, intervalStart, ok := f.forecast(published, now)
	if !ok {
		return nil
	}
	out := VirtualTasks(probs, f.Cfg, intervalStart, f.Threshold, f.ValidTime, f.nextID)
	tensor.Recycle(probs)
	f.nextID -= len(out)
	return out
}

// forecast runs the model once: it returns the predicted probability matrix,
// the caller's to hand to tensor.Recycle after its last read, and the
// wall-clock start of the interval it describes, or ok=false until enough
// history has accumulated. Virtuals and the scenario sampler share it so a
// sampled forecast never predicts twice.
func (f *Forecaster) forecast(published []*core.Task, now float64) (probs *tensor.Matrix, intervalStart float64, ok bool) {
	p := f.Cfg.complete(now)
	if p < f.History {
		return nil, 0, false
	}
	if len(f.window) != f.History {
		f.window = make([]*tensor.Matrix, f.History)
		for i := range f.window {
			f.window[i] = tensor.New(f.Cfg.Grid.Cells(), f.Cfg.K)
		}
	}
	f.fillWindow(published, p)
	probs = f.Model.Predict(f.window)
	horizon := f.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	intervalStart = f.Cfg.T0 + float64(p+horizon-1)*f.Cfg.VectorSpan()
	return probs, intervalStart, true
}

// fillWindow rewrites f.window to vectors p−History … p−1 of the series
// BuildSeries would build from published — the same bins, cell for cell.
//
//datawa:hotpath
func (f *Forecaster) fillWindow(published []*core.Task, p int) {
	for _, v := range f.window {
		v.Zero()
	}
	first := p - f.History
	for _, task := range published {
		if vec, dim, ok := f.Cfg.bin(task.Pub, p); ok && vec >= first {
			f.window[vec-first].Set(f.Cfg.Grid.CellOf(task.Loc), dim, 1)
		}
	}
}

// Span returns the prediction cadence: one vector span kΔT.
func (f *Forecaster) Span() float64 { return f.Cfg.VectorSpan() }

// HistorySpan returns how far back published tasks still influence a
// prediction: the History-vector window plus one vector span of slack for
// the flooring of partial vectors. Long-running callers may discard older
// tasks: they fall before the window fillWindow builds, so the forecast is
// unchanged.
func (f *Forecaster) HistorySpan() float64 {
	return float64(f.History+1) * f.Cfg.VectorSpan()
}
