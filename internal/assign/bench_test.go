package assign

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

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

// BenchmarkPlanScale times the planner across planning-instant sizes (total
// entities = workers + tasks at a 1:4 ratio).
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
		b.Run(sc.name, func(b *testing.B) {
			o := benchOpts()
			// Bounded per-tree effort keeps one plan call in benchmark range.
			o.MaxNodes = 400
			o.WDS.MaxSeqLen = 2
			o.WDS.MaxSequences = 16
			s := &Search{Opts: o}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Plan(ws, ts, 0)
			}
		})
	}
}

// BenchmarkCrowdPlan measures one warm TPA call on the flash-crowd instant of
// the event-spike archetype with the benchmark's 4000-node budget: the regime
// where every tree's budget binds and the per-node candidate filter and greedy
// completions set the epoch tail. At 1.5x every tree's universe fits one word
// and the transposition table is on (transposition.go); at 5x the instant is
// one 113-task tree, laid out on two words.
func BenchmarkCrowdPlan(b *testing.B) {
	a, _ := scenario.Get("event-spike")
	for _, c := range []struct {
		name  string
		scale float64
	}{{"1.5x", 1.5}, {"5x", 5}} {
		b.Run(c.name, func(b *testing.B) {
			crowd := atlasInstantsOf(a, c.scale)[0]
			o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000}
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
	o := Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}, MaxNodes: 4000}
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

// BenchmarkWorkTracksPlanTime ranks Work against plan wall time: Search at its
// default budget plans the crowd and median instants of every atlas archetype
// at 1x, 2.5x and 5x (60 instants), five times each, and the Spearman ρ of
// Work against the median wall is reported as rho, beside workers-x-open-rho,
// the same for the pool size the governor used to score. ns/work is the
// median and p10/p90 of wall per work unit, what an epoch budget in work units
// converts at. A ρ below 0.933, the pool size's at the time Work was chosen,
// fails. Run with -benchtime 1x: each iteration is the whole measurement.
func BenchmarkWorkTracksPlanTime(b *testing.B) {
	var ins []instant
	for _, a := range scenario.Registry() {
		for _, scale := range []float64{1, 2.5, 5} {
			ins = append(ins, atlasInstantsOf(a, scale)...)
		}
	}
	s := &Search{Opts: Options{WDS: wds.Options{Travel: geo.NewTravelModel(0)}}}
	for range b.N {
		work, size, wall := make([]float64, len(ins)), make([]float64, len(ins)), make([]float64, len(ins))
		perUnit := make([]float64, len(ins))
		for i, in := range ins {
			var walls [5]float64
			for r := range walls {
				start := time.Now()
				s.Plan(in.workers, in.tasks, in.now)
				walls[r] = float64(time.Since(start).Nanoseconds())
			}
			slices.Sort(walls[:])
			work[i], size[i], wall[i] = float64(s.Work()), float64(len(in.workers)*len(in.tasks)), walls[2]
			perUnit[i] = wall[i] / max(work[i], 1)
		}
		rho := spearman(work, wall)
		b.ReportMetric(rho, "rho")
		b.ReportMetric(spearman(size, wall), "workers-x-open-rho")
		slices.Sort(perUnit)
		b.ReportMetric(perUnit[len(perUnit)/2], "ns/work")
		b.ReportMetric(perUnit[len(perUnit)/10], "ns/work-p10")
		b.ReportMetric(perUnit[len(perUnit)*9/10], "ns/work-p90")
		if rho < 0.933 {
			b.Fatalf("Spearman ρ of Work against plan wall time is %.3f, below 0.933", rho)
		}
	}
}

// spearman is the Spearman rank correlation of x and y: Pearson's over their
// ranks, ties given their mean rank.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	var mx, my float64
	for i := range rx {
		mx, my = mx+rx[i]/n, my+ry[i]/n
	}
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy, sxx, syy = sxy+dx*dy, sxx+dx*dx, syy+dy*dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

func ranks(v []float64) []float64 {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(v[a], v[b]) })
	r := make([]float64, len(v))
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && v[order[j]] == v[order[i]] {
			j++
		}
		for k := i; k < j; k++ {
			r[order[k]] = float64(i+j-1)/2 + 1
		}
		i = j
	}
	return r
}
