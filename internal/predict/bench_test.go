package predict

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// BenchmarkDDGNNTrainEpoch measures one epoch of DDGNN training on a
// realistic window count (the dominant cost of the prediction component).
func BenchmarkDDGNNTrainEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trainEpochFixture()
	}
}

// BenchmarkDDGNNPredict measures one inference pass — the paper's testing
// time metric (Figs. 5d/6d) — both ways the trunk's memo can meet a window.
// cold alternates two windows with no vector in common, so the memo carries
// nothing; sliding walks consecutive windows of a long series, as a
// forecaster's refreshes do, so all but one step per layer is carried (the
// walk restarts, cold, once every 192 windows).
func BenchmarkDDGNNPredict(b *testing.B) {
	m, _ := predictFixture()
	series := syntheticSeries(36, 3, 200, 23)
	b.Run("cold", func(b *testing.B) {
		windows := [2][]*tensor.Matrix{series[0:8], series[8:16]}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Predict(windows[i%2])
		}
	})
	b.Run("sliding", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % (len(series) - 8)
			m.Predict(series[j : j+8])
		}
	})
}

// trainEpochFixture trains a DDGNN for one epoch over 32 windows of a
// 36-cell series: BenchmarkDDGNNTrainEpoch's unit of work.
func trainEpochFixture() *DDGNN {
	ws := windowsFrom(syntheticSeries(36, 3, 40, 21), 8)
	m := NewDDGNN(DDGNNConfig{K: 3, Hidden: 16, Embed: 8, Train: TrainConfig{Epochs: 1, Seed: 21}})
	m.Fit(ws)
	return m
}

// predictFixture returns a briefly trained DDGNN, the model
// BenchmarkDDGNNPredict times, and the window TestDDGNNForecastPinned
// forecasts from.
func predictFixture() (*DDGNN, []*tensor.Matrix) {
	ws := windowsFrom(syntheticSeries(36, 3, 12, 22), 8)
	m := NewDDGNN(DDGNNConfig{K: 3, Hidden: 16, Embed: 8, Train: TrainConfig{Epochs: 1, Seed: 22}})
	m.Fit(ws[:2])
	return m, ws[len(ws)-1].Inputs
}

// BenchmarkBuildSeries measures series discretization over a city-hour of
// tasks.
func BenchmarkBuildSeries(b *testing.B) {
	cfg := testConfig()
	var tasks []*core.Task
	for i := 0; i < 5000; i++ {
		tasks = append(tasks, taskAt(i, 0.5, 0.5, float64(i)*0.7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSeries(cfg, tasks, 3500)
	}
}
