package tvf

import (
	"testing"
)

// BenchmarkFeaturize measures state-action featurization, executed once per
// candidate sequence inside DFSearch_TVF.
func BenchmarkFeaturize(b *testing.B) {
	st := simpleState()
	a := Action{Worker: st.Workers[0], Seq: simpleState().Tasks[:2]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Featurize(st, a, tm)
	}
}

// BenchmarkPredictBatch measures scoring 32 candidates in one pass, the
// per-worker cost of Algorithm 2.
func BenchmarkPredictBatch(b *testing.B) {
	m := NewModel(16, 1)
	st := simpleState()
	feats := make([][FeatureDim]float64, 32)
	for i := range feats {
		feats[i] = Featurize(st, Action{Worker: st.Workers[0], Seq: st.Tasks[:1+i%2]}, tm)
	}
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(&batch, feats)
	}
}

// BenchmarkTrain measures one epoch of value-model training over 4,096
// samples in 64 mini-batches of 64, the unit nn.Fit repeats TrainConfig's
// Epochs times at set-up.
func BenchmarkTrain(b *testing.B) {
	samples := randomSamples(4096, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewModel(16, 43).Train(samples, TrainConfig{Epochs: 1, Seed: 43})
	}
}
