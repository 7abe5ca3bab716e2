// Package datawa benchmarks: one benchmark per table and figure of the
// paper's evaluation (Section V) plus the design-decision ablations
// (internal/experiments; the harness's settings are in docs/PLANNERS.md).
// Each benchmark executes the corresponding experiment end to end
// at the Quick scale, so `go test -bench=. -benchmem` regenerates every
// reported artifact; run `cmd/datawa-bench -scale standard|full` for
// higher-fidelity sweeps.
package datawa_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchScale keeps benchmark iterations short while still running every
// sweep end to end (two points per swept parameter, both datasets).
func benchScale() experiments.Scale {
	s := experiments.Quick
	s.SweepPoints = 1
	return s
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(s)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable2Datasets regenerates Table II: the dataset cardinalities of
// the two synthetic stand-in traces.
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig5Prediction regenerates Fig. 5 (Yueche): AP, assigned tasks,
// training and testing time of LSTM, Graph-WaveNet and DDGNN across ΔT.
func BenchmarkFig5Prediction(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Prediction regenerates Fig. 6 (DiDi), the same four panels on
// the second dataset.
func BenchmarkFig6Prediction(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7TaskCount regenerates Fig. 7: assigned tasks and CPU time for
// every registered assignment method (the paper's five plus SSP) as |S|
// grows.
func BenchmarkFig7TaskCount(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8WorkerCount regenerates Fig. 8: effect of |W|.
func BenchmarkFig8WorkerCount(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9ReachableDistance regenerates Fig. 9: effect of the worker
// reachable distance d.
func BenchmarkFig9ReachableDistance(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10AvailableTime regenerates Fig. 10: effect of the worker
// availability window off − on.
func BenchmarkFig10AvailableTime(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11ValidTime regenerates Fig. 11: effect of the task valid time
// e − p.
func BenchmarkFig11ValidTime(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkAblationStaticAdjacency compares DDGNN's learned dynamic
// dependency matrix with identity propagation.
func BenchmarkAblationStaticAdjacency(b *testing.B) { runExperiment(b, "ablation-adjacency") }

// BenchmarkAblationTVFOff compares exact DFSearch with the TVF-guided search
// (quality, CPU, expanded nodes).
func BenchmarkAblationTVFOff(b *testing.B) { runExperiment(b, "ablation-tvf") }

// BenchmarkAblationFlatSearch compares the RTC tree search with a flat
// per-component search.
func BenchmarkAblationFlatSearch(b *testing.B) { runExperiment(b, "ablation-flat") }

// BenchmarkAblationSeqLen sweeps the maximal sequence length cap (|Q_w|
// growth is the cost being bounded).
func BenchmarkAblationSeqLen(b *testing.B) { runExperiment(b, "ablation-seqlen") }

// BenchmarkAblationDynamicWindows exercises the title feature: availability
// windows fragmented by unplanned breaks versus contiguous windows.
func BenchmarkAblationDynamicWindows(b *testing.B) { runExperiment(b, "ablation-breaks") }
