package wds

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

func benchInstance(nWorkers, nTasks int) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(9))
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, &core.Worker{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * 4, Y: r.Float64() * 4},
			Reach: 1, On: 0, Off: 1e5,
		})
	}
	var ts []*core.Task
	for i := 0; i < nTasks; i++ {
		ts = append(ts, &core.Task{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * 4, Y: r.Float64() * 4},
			Pub: 0, Exp: 500, Cell: -1,
		})
	}
	return ws, ts
}

// BenchmarkSeparate measures the full WDS pipeline (reachable sets, maximal
// valid sequences, dependency graph, MCS partition, RTC trees) at a typical
// planning-instant size.
func BenchmarkSeparate(b *testing.B) {
	ws, ts := benchInstance(40, 80)
	o := Options{Travel: geo.NewTravelModel(0.005)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Separate(ws, ts, 0, o)
	}
}

// BenchmarkMaximalValidSequences measures Q_w generation for one worker with
// a full reachable set.
func BenchmarkMaximalValidSequences(b *testing.B) {
	ws, ts := benchInstance(1, 40)
	o := Options{Travel: geo.NewTravelModel(0.005)}.WithDefaults()
	rs := ReachableTasks(ws[0], ts, 0, o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaximalValidSequences(ws[0], rs, 0, o)
	}
}

// BenchmarkSequences measures Q_w generation as Separate runs it: one
// Scratch reused across calls, so the generator's tables are warm, and Q_w
// laid out in its arenas as positions, which a warm Scratch does without
// allocating. single and three are the reachable sets most workers have;
// crowd8 is a full default reachable set of mutually reachable tasks, where
// every set of up to three is valid (8 + 28 + 56 = 92). It reports the sets
// generated per call.
func BenchmarkSequences(b *testing.B) {
	r := rand.New(rand.NewSource(40))
	w := worker(1, 0.5, 0.5, 2, 0, 1e9)
	var crowd []*core.Task
	for i := 0; i < 8; i++ {
		crowd = append(crowd, task(i+1, r.Float64(), r.Float64(), 0, 1e9))
	}
	o := Options{Travel: geo.NewTravelModel(0.005)}.WithDefaults()
	for _, shape := range []struct {
		name string
		rs   []*core.Task
	}{
		{"single", crowd[:1]},
		{"three", crowd[:3]},
		{"crowd8", crowd},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var sc Scratch
			ws := WorkerSets{Index: wholePool(len(shape.rs))}
			sc.sequenceSets(w, shape.rs, &ws, 0, o)
			sets := len(ws.Masks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.resetArenas()
				sc.sequenceSets(w, shape.rs, &ws, 0, o)
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
}

// BenchmarkReachableTasks measures constraint filtering over a task pool.
func BenchmarkReachableTasks(b *testing.B) {
	ws, ts := benchInstance(1, 200)
	o := Options{Travel: geo.NewTravelModel(0.005)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReachableTasks(ws[0], ts, 0, o)
	}
}

// scaledInstance builds a scattered population at constant spatial density
// (≈13 tasks per km², ≈10 tasks per reach disc), so per-worker local work
// stays fixed while the pool grows — the regime where the grid index turns
// per-instant reachability from O(|W|·|T|) into O(|W|·k).
func scaledInstance(nWorkers, nTasks int) ([]*core.Worker, []*core.Task) {
	r := rand.New(rand.NewSource(11))
	span := math.Sqrt(float64(nTasks) / 13.0)
	var ws []*core.Worker
	for i := 0; i < nWorkers; i++ {
		ws = append(ws, &core.Worker{
			ID: i + 1, Loc: geo.Point{X: r.Float64() * span, Y: r.Float64() * span},
			Reach: 0.5, On: 0, Off: 1e5,
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

// BenchmarkSeparateScale times the pipeline across planning-instant sizes
// (total entities = workers + tasks at a 1:4 ratio), serial and fanned out.
// BenchmarkReachableScale below holds the grid index against the scan.
func BenchmarkSeparateScale(b *testing.B) {
	scales := []struct {
		name             string
		nWorkers, nTasks int
	}{
		{"1k", 200, 800},
		{"5k", 1000, 4000},
		{"20k", 4000, 16000},
	}
	o := Options{Travel: geo.NewTravelModel(0.005), Parallelism: 1, MaxSeqLen: 2}
	for _, sc := range scales {
		ws, ts := scaledInstance(sc.nWorkers, sc.nTasks)
		b.Run(sc.name+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Separate(ws, ts, 0, o)
			}
		})
		// The indexed row again at Parallelism 0: the per-worker loop fans out
		// where the pool is past separateGrain a goroutine, and must be no
		// slower than the serial row where it is not.
		b.Run(sc.name+"/indexed-par", func(b *testing.B) {
			po := o
			po.Parallelism = 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Separate(ws, ts, 0, po)
			}
		})
	}
}

// BenchmarkReachableScale isolates per-instant reachability — every worker's
// RS_w over the full pool — which the grid index turns from O(|W|·|T|) into
// O(|W|·k). The indexed timing includes building the index, as Separate
// rebuilds it each planning instant.
func BenchmarkReachableScale(b *testing.B) {
	scales := []struct {
		name             string
		nWorkers, nTasks int
	}{
		{"1k", 200, 800},
		{"5k", 1000, 4000},
		{"20k", 4000, 16000},
	}
	o := Options{Travel: geo.NewTravelModel(0.005)}.WithDefaults()
	for _, sc := range scales {
		ws, ts := scaledInstance(sc.nWorkers, sc.nTasks)
		b.Run(sc.name+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := spatial.NewIndex(ts, spatial.CellSizeForReach(ws))
				for _, w := range ws {
					ReachableTasksIndexed(w, ix, 0, o)
				}
			}
		})
		b.Run(sc.name+"/brute", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, w := range ws {
					ReachableTasks(w, ts, 0, o)
				}
			}
		})
	}
}

// componentsTreeCase is one instant of BenchmarkComponentsTree, separated
// once outside the timer.
func componentsTreeCase(workers []*core.Worker, tasks []*core.Task, now float64, o Options) (*Separator, *Separation) {
	sp := new(Separator)
	return sp, &sp.Scenarios(workers, tasks, now, o, 1)[0]
}

// BenchmarkComponentsTree times the second and third Separator stages —
// dependency components and one RTC tree per component — on a warm
// Separator: the event-spike crowds at 1.5x and 5x (dense: a handful of
// components, workers sharing many tasks) and the 20k scaledInstance pool
// (scattered: one giant component of low degree, bit rows of many words). It
// reports the dependency graph's edges, the component count and the largest
// component.
func BenchmarkComponentsTree(b *testing.B) {
	type shape struct {
		name string
		sep  func() (*Separator, *Separation)
	}
	var shapes []shape
	for _, scale := range []float64{1.5, 5} {
		shapes = append(shapes, shape{fmt.Sprintf("crowd/%gx", scale), func() (*Separator, *Separation) {
			c := crowdOf("event-spike", scale)
			return componentsTreeCase(c.workers, c.tasks, c.now, crowdOpts)
		}})
	}
	shapes = append(shapes, shape{"scattered20k", func() (*Separator, *Separation) {
		ws, ts := scaledInstance(4000, 16000)
		return componentsTreeCase(ws, ts, 0, Options{Travel: geo.NewTravelModel(0.005), Parallelism: 1, MaxSeqLen: 2})
	}})
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			sp, sep := s.sep()
			var flat []int
			var offs []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.b.reset()
				flat, offs = sp.Components(sep)
				for c := 0; c+1 < len(offs); c++ {
					sp.Tree(flat[offs[c]:offs[c+1]])
				}
			}
			b.StopTimer()
			largest := 0
			for c := 0; c+1 < len(offs); c++ {
				largest = max(largest, int(offs[c+1]-offs[c]))
			}
			b.ReportMetric(float64(sep.Graph.Edges()), "edges")
			b.ReportMetric(float64(len(offs)-1), "components")
			b.ReportMetric(float64(largest), "largest")
		})
	}
}
