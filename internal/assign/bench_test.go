package assign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/tvf"
	"repro/internal/wds"
)

func benchInstance(nWorkers, nTasks int) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(13))
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, &core.Worker{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * 3, Y: r.Float64() * 3},
			Reach: 1, On: 0, Off: 1e5,
		})
	}
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		ts = append(ts, &core.Task{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * 3, Y: r.Float64() * 3},
			Pub: 0, Exp: 600, Cell: -1,
		})
	}
	return ws, ts
}

func benchOpts() Options {
	return Options{WDS: wds.Options{Travel: geo.NewTravelModel(0.005)}, MaxNodes: 5000}
}

// BenchmarkExactSearchPlan measures one TPA call with the exact DFSearch.
func BenchmarkExactSearchPlan(b *testing.B) {
	ws, ts := benchInstance(30, 60)
	s := &Search{Opts: benchOpts()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(ws, ts, 0)
	}
}

// BenchmarkTVFSearchPlan measures one TPA call with DFSearch_TVF, the
// efficiency claim of Section IV-B.
func BenchmarkTVFSearchPlan(b *testing.B) {
	ws, ts := benchInstance(30, 60)
	model := tvf.NewModel(16, 17)
	s := &Search{Opts: benchOpts(), Model: model}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(ws, ts, 0)
	}
}

// scaledInstance builds a scattered population at constant spatial density
// so the RTC forest holds many independent trees — the unit of parallelism.
func scaledInstance(nWorkers, nTasks int) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(21))
	span := math.Sqrt(float64(nTasks) / 13.0)
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, &core.Worker{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * span, Y: r.Float64() * span},
			Reach: 0.3, On: 0, Off: 1e5,
		})
	}
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		ts = append(ts, &core.Task{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * span, Y: r.Float64() * span},
			Pub: 0, Exp: 1e5, Cell: -1,
		})
	}
	return ws, ts
}

// BenchmarkPlanScale compares the serial planner against the concurrent one
// across planning-instant sizes (total entities = workers + tasks at a 1:4
// ratio). Plans are byte-identical at every parallelism level; the speedup
// of parallel4 over serial on a multi-core host is the win being measured
// (on a single-core host the two are expected to tie, minus pool overhead).
func BenchmarkPlanScale(b *testing.B) {
	scales := []struct {
		name             string
		nWorkers, nTasks int
	}{
		{"1k", 200, 800},
		{"5k", 1000, 4000},
		{"20k", 4000, 16000},
	}
	for _, sc := range scales {
		ws, ts := scaledInstance(sc.nWorkers, sc.nTasks)
		for _, mode := range []struct {
			name        string
			parallelism int
		}{
			{"serial", 1},
			{"parallel4", 4},
		} {
			b.Run(sc.name+"/"+mode.name, func(b *testing.B) {
				o := benchOpts()
				// Bounded per-tree effort keeps one plan call in benchmark
				// range while leaving each tree enough search to parallelize.
				o.MaxNodes = 400
				o.WDS.MaxSeqLen = 2
				o.WDS.MaxSequences = 16
				o.Parallelism = mode.parallelism
				s := &Search{Opts: o}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Plan(ws, ts, 0)
				}
			})
		}
	}
}

// BenchmarkCrowdPlan measures one warm TPA call on the flash-crowd instant of
// the event-spike archetype with the benchmark's 4000-node budget: the regime
// where every tree's budget binds and the per-node candidate filter and greedy
// completions set the epoch tail. At 1.5x every tree's universe fits one word
// and the transposition table is on (transposition.go); at 5x the instant is
// one 113-task tree, laid out on two words. The -par rows plan the same instants at
// Parallelism 0 — whatever the grains of wds.Separate and Search.Plan make of
// the CPUs given by -cpu — and must be no slower than their serial twins.
func BenchmarkCrowdPlan(b *testing.B) {
	a, _ := scenario.Get("event-spike")
	for _, c := range []struct {
		name        string
		scale       float64
		parallelism int
	}{{"1.5x", 1.5, 1}, {"5x", 5, 1}, {"1.5x-par", 1.5, 0}, {"5x-par", 5, 0}} {
		b.Run(c.name, func(b *testing.B) {
			crowd := atlasInstantsOf(a, c.scale)[0]
			o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000, Parallelism: c.parallelism}
			s := &Search{Opts: o}
			s.Plan(crowd.workers, crowd.tasks, crowd.now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Plan(crowd.workers, crowd.tasks, crowd.now)
			}
			b.ReportMetric(float64(s.NodesLastPlan), "nodes")
			b.ReportMetric(float64(s.ExpandedLastPlan), "expanded")
			b.ReportMetric(float64(s.GreedyCompletionsLastPlan), "greedy")
			b.ReportMetric(float64(s.SkippedCompletionsLastPlan), "skipped")
			b.ReportMetric(float64(s.ReachChecksLastPlan), "reach-checks")
		})
	}
}

// BenchmarkSSPPlan measures one warm scenario-sampling call (K=5) on the crowd
// instant of the rush-hour archetype at 2.5x (sspRushHourPool): five scenarios
// over one pool that share every real task, planned in one staged pass.
// distinct-trees of the trees the five forests hold between them are built and
// searched.
func BenchmarkSSPPlan(b *testing.B) {
	const k = 5
	crowd := sspRushHourPool(k)
	o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000, Parallelism: 1}
	p := &SSP{Opts: o, Samples: k}
	p.Plan(crowd.workers, crowd.tasks, crowd.now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Plan(crowd.workers, crowd.tasks, crowd.now)
	}
	b.ReportMetric(float64(p.NodesLastPlan), "nodes")
	b.ReportMetric(float64(p.ExpandedLastPlan), "expanded")
	b.ReportMetric(float64(p.GreedyCompletionsLastPlan), "greedy")
	b.ReportMetric(float64(p.SkippedCompletionsLastPlan), "skipped")
	b.ReportMetric(float64(p.TreesLastPlan), "trees")
	b.ReportMetric(float64(p.DistinctTreesLastPlan), "distinct-trees")
}

// idleInstant has the shape of paper-yueche's median instant (ROADMAP item
// 5's table; internal/wds's idleOf draws the same): 276 workers on shift over
// the Yueche trace's 4 km square with its 1 km reach, and 3 open tasks with
// its 40 s of validity. At the default 10 m/s a worker must stand within
// 0.4 km of a task to reach it before it expires, condition (i): one worker
// stands 0.2 km from each task, and the other 273 — about 50 of them within
// 1 km of a task — stand farther than 0.4 km from all three.
func idleInstant() ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(31))
	var ts []*core.Task
	for i := 0; i < 3; i++ {
		loc := geo.Point{X: 0.5 + 3*r.Float64(), Y: 0.5 + 3*r.Float64()}
		ts = append(ts, &core.Task{ID: i + 1, Loc: loc, Exp: 40, Cell: -1})
	}
	var ws []*core.Worker
	for i := 0; i < 276; i++ {
		loc := ts[i/92].Loc
		loc.X += 0.2
		for i%92 != 0 && slices.ContainsFunc(ts, func(s *core.Task) bool { return geo.Dist(loc, s.Loc) <= 0.4 }) {
			loc = geo.Point{X: 4 * r.Float64(), Y: 4 * r.Float64()}
		}
		ws = append(ws, &core.Worker{ID: i + 1, Loc: loc, Reach: 1, Off: 3600})
	}
	return ws, ts
}

// BenchmarkPlanIdle measures one warm DFSearch_TVF call, the planner of
// paper-yueche, on idleInstant at the default speed: a plan whose cost is the
// reach stage over 276 workers on shift — gathered from the task side, three
// disc queries on a grid of the workers — and the trees of the three that
// reach a task. reach-checks is the distances the reach stage computed.
func BenchmarkPlanIdle(b *testing.B) {
	ws, ts := idleInstant()
	s := &Search{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 5000}, Model: tvf.NewModel(16, 17)}
	s.Plan(ws, ts, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(ws, ts, 0)
	}
	b.ReportMetric(float64(s.trees), "trees")
	b.ReportMetric(float64(s.NodesLastPlan), "nodes")
	b.ReportMetric(float64(s.ReachChecksLastPlan), "reach-checks")
}

// benchScan measures one warm Plan call of a sequential planner on the crowd
// instant of the courier-grid archetype at 20x, the density churn-greedy
// replays: one index build, then per worker a disc query, the nearest
// MaxReachable candidates and (Greedy) the best-sequence pick.
func benchScan(b *testing.B, p Planner) {
	a, _ := scenario.Get("courier-grid")
	crowd := atlasInstantsOf(a, 20)[0]
	plan := p.Plan(crowd.workers, crowd.tasks, crowd.now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan = p.Plan(crowd.workers, crowd.tasks, crowd.now)
	}
	b.ReportMetric(float64(len(crowd.workers)), "workers")
	b.ReportMetric(float64(len(crowd.tasks)), "tasks")
	b.ReportMetric(float64(plan.Size()), "assigned")
}

func BenchmarkGreedyPlan(b *testing.B) {
	benchScan(b, &Greedy{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}}})
}

func BenchmarkMatchPlan(b *testing.B) {
	benchScan(b, &Match{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}}})
}
