package graphutil

import "testing"

// BenchmarkFillIn measures chordal completion via the elimination game on a
// component-sized dependency graph.
func BenchmarkFillIn(b *testing.B) {
	g := randomGraph(40, 0.15, 11)
	vs := allVertices(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FillIn(vs)
	}
}

// BenchmarkCliquesOfRows measures the planner's clique path — MCS, the
// elimination game and clique extraction on a reused workspace — on the
// same graph's rows.
func BenchmarkCliquesOfRows(b *testing.B) {
	rows := randomGraph(40, 0.15, 11).laidOut()
	var ws Chordal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.CliquesOfRows(rows)
	}
}

// BenchmarkComponents measures connected-component extraction.
func BenchmarkComponents(b *testing.B) {
	g := randomGraph(200, 0.01, 11)
	g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components(nil)
	}
}
