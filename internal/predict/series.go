// Package predict implements the task demand prediction component of
// DATA-WA (Section III): the task multivariate time series over grid cells,
// the Demand Dependency Learning module, the Dynamic Dependency-based Graph
// Neural Network (DDGNN), and the two baselines the paper evaluates against
// (LSTM and Graph-WaveNet). It also converts predicted demand into virtual
// tasks consumed by the assignment component.
package predict

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/tensor"
)

// SeriesConfig describes how raw tasks are discretized into the task
// multivariate time series of Section III-A.
type SeriesConfig struct {
	// Grid partitions the study area into M cells.
	Grid geo.Grid
	// K is the number of ΔT intervals covered by each vector c (k > 1).
	K int
	// DeltaT is the elementary time interval ΔT in seconds.
	DeltaT float64
	// T0 is the series origin t₀.
	T0 float64
}

// VectorSpan returns kΔT, the time covered by one series vector.
func (c SeriesConfig) VectorSpan() float64 { return float64(c.K) * c.DeltaT }

// Series is a task multivariate time series for all M grid cells.
// Vectors[p] is an M×K binary matrix whose row i is the vector
// c_i^{t₀+p·kΔT} of Eq. 2: element (i, j) is 1 iff some task is published in
// cell i during [t₀+p·kΔT+jΔT, t₀+p·kΔT+(j+1)ΔT).
type Series struct {
	Config  SeriesConfig
	Vectors []*tensor.Matrix
}

// P returns the number of record vectors in the series.
func (s *Series) P() int { return len(s.Vectors) }

// complete returns the number of whole vectors in [c.T0, until), the series
// length P at that instant. It panics on a configuration Eq. 2 excludes.
func (c SeriesConfig) complete(until float64) int {
	if c.K <= 1 {
		panic(fmt.Sprintf("predict: K must exceed 1 (paper: k > 1), got %d", c.K))
	}
	if c.DeltaT <= 0 {
		panic("predict: DeltaT must be positive")
	}
	return max(int((until-c.T0)/c.VectorSpan()), 0)
}

// bin locates a publication time in a series of p vectors: the vector and the
// ΔT interval within it, per Eq. 2, or ok=false outside [c.T0, c.T0+p·kΔT).
func (c SeriesConfig) bin(pub float64, p int) (vec, dim int, ok bool) {
	span := c.VectorSpan()
	if pub < c.T0 || pub >= c.T0+float64(p)*span {
		return 0, 0, false
	}
	rel := pub - c.T0
	vec = int(rel / span)
	dim = int((rel - float64(vec)*span) / c.DeltaT)
	if dim >= c.K { // guard against float edge cases
		dim = c.K - 1
	}
	return vec, dim, true
}

// BuildSeries discretizes tasks published in [cfg.T0, until) into a series.
// Tasks outside the window or the grid region (clamped cells still count)
// are binned by publication time per Eq. 2.
func BuildSeries(cfg SeriesConfig, tasks []*core.Task, until float64) *Series {
	p := cfg.complete(until)
	s := &Series{Config: cfg}
	m := cfg.Grid.Cells()
	for i := 0; i < p; i++ {
		s.Vectors = append(s.Vectors, tensor.New(m, cfg.K))
	}
	for _, task := range tasks {
		if vec, dim, ok := cfg.bin(task.Pub, p); ok {
			s.Vectors[vec].Set(cfg.Grid.CellOf(task.Loc), dim, 1)
		}
	}
	return s
}

// Window is one training example: Inputs are the P consecutive history
// vectors; Target is the vector that immediately follows.
type Window struct {
	Inputs []*tensor.Matrix
	Target *tensor.Matrix
	// Index is the position of Target within the source series.
	Index int
}

// Windows slices the series into sliding windows of the given history
// length with the given stride (≥1). Every window predicts one step ahead.
func (s *Series) Windows(history, stride int) []Window {
	return s.WindowsAhead(history, stride, 1)
}

// WindowsAhead is Windows with a forecasting horizon: the target is the
// vector `horizon` steps after the window (horizon 1 = the immediate next
// vector). Streaming deployments predict at horizon 2 so workers have one
// full interval of travel lead time before the demand materializes.
func (s *Series) WindowsAhead(history, stride, horizon int) []Window {
	if history <= 0 || stride <= 0 || horizon <= 0 {
		panic("predict: history, stride and horizon must be positive")
	}
	var out []Window
	for end := history; end+horizon-1 < s.P(); end += stride {
		out = append(out, Window{
			Inputs: s.Vectors[end-history : end],
			Target: s.Vectors[end+horizon-1],
			Index:  end + horizon - 1,
		})
	}
	return out
}

// SplitWindows splits windows into train and test sets with the given train
// fraction, preserving temporal order (earlier windows train, later test),
// which avoids leakage. The paper uses an 80/20 split.
func SplitWindows(ws []Window, trainFrac float64) (train, test []Window) {
	n := int(float64(len(ws)) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > len(ws) {
		n = len(ws)
	}
	return ws[:n], ws[n:]
}

// EvalResult summarizes a predictor's quality and cost on one series,
// the four panels of Figs. 5 and 6.
type EvalResult struct {
	Model     string
	AP        float64
	TrainTime time.Duration
	TestTime  time.Duration
	// Scores and Labels are the flattened per-(cell,interval) predictions
	// over the test windows, kept for further analysis.
	Scores []float64
	Labels []bool
}
