package stream

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/wds"
	"repro/internal/workload"
)

// BenchmarkStreamRun measures a complete streaming simulation (DTA policy)
// at a small scale: the end-to-end cost of Algorithm 3.
func BenchmarkStreamRun(b *testing.B) {
	sc := workload.Generate(workload.Yueche().Scaled(0.03))
	in := Input{Workers: sc.Workers, Tasks: sc.Tasks, T0: sc.T0, T1: sc.T1}
	cfg := Config{
		Planner: &assign.Search{Opts: assign.Options{WDS: wds.Options{Travel: travel}}},
		Step:    2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(in, cfg)
	}
}
