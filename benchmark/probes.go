package main

import (
	"sort"
	"time"

	datawa "repro"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
	"repro/internal/wds"
)

// probeInstants is how many crowd instants are probed besides the median one;
// probePasses how often each layer is timed per instant (the best is kept).
const (
	probeInstants = 4
	probePasses   = 5
)

// pool is the planning input at one instant, built from the trace the way
// Framework.TrainValue builds its sample instants: every worker available at
// t and every task published and unexpired at t. No task has been assigned
// away, so it bounds the live pool of that instant from above.
type pool struct {
	now     float64
	workers []*core.Worker
	tasks   []*core.Task
}

func poolAt(tr *trace, t float64) pool {
	p := pool{now: t}
	for _, w := range tr.sc.Workers {
		if w.Available(t) {
			p.workers = append(p.workers, w)
		}
	}
	for _, s := range tr.sc.Tasks {
		if s.Pub <= t && s.Exp > t {
			p.tasks = append(p.tasks, s)
		}
	}
	return p
}

// crowdPools picks the planning instants with the most open tasks, plus the
// instant whose open-task count is the median over all instants.
func crowdPools(tr *trace, step float64) []pool {
	type instant struct {
		t    float64
		open int
	}
	var all []instant
	// Tasks are sorted by Pub, so a sliding window counts the open ones.
	tasks := tr.sc.Tasks
	lo, hi := 0, 0
	for t := tr.t0; t < tr.t1; t += step {
		for hi < len(tasks) && tasks[hi].Pub <= t {
			hi++
		}
		for lo < hi && tasks[lo].Exp <= t {
			lo++
		}
		open := 0
		for _, s := range tasks[lo:hi] {
			if s.Exp > t {
				open++
			}
		}
		all = append(all, instant{t, open})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].open > all[j].open })
	picks := all[:min(probeInstants, len(all))]
	picks = append(picks[:len(picks):len(picks)], all[len(all)/2])
	out := make([]pool, len(picks))
	for i, in := range picks {
		out[i] = poolAt(tr, in.t)
	}
	return out
}

// best times fn probePasses times and returns the fastest pass.
func best(fn func()) time.Duration {
	var fastest time.Duration
	for i := 0; i < probePasses; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest
}

// probeLayers calls each planning layer's public function in pipeline order
// on the crowd pools and adds the per-layer costs and work counts, summed over
// the pools, to out. fw supplies the trained value model for the TVF-guided
// plan when the workload has one.
func probeLayers(pools []pool, fw *datawa.Framework, out map[string]float64) {
	opts := assign.Options{
		WDS:      wds.Options{Travel: geo.NewTravelModel(0)},
		MaxNodes: maxSearchNodes,
	}
	var queries int
	var withinNS int64
	for _, p := range pools {
		cell := spatial.CellSizeForReach(p.workers)
		var ix *spatial.Index
		out["spatial.index_build_us"] += us(best(func() { ix = spatial.NewIndex(p.tasks, cell) }))

		var buf []*core.Task
		candidates := 0
		withinNS += best(func() {
			candidates = 0
			for _, w := range p.workers {
				buf = ix.AppendWithin(buf[:0], w.Loc, w.Reach)
				candidates += len(buf)
			}
		}).Nanoseconds()
		queries += len(p.workers)
		out["wds.reach_candidates"] += float64(candidates)

		reach := make([][]*core.Task, len(p.workers))
		out["wds.reach_us"] += us(best(func() {
			for i, w := range p.workers {
				reach[i] = wds.ReachableTasksIndexed(w, ix, p.now, opts.WDS)
			}
		}))

		sequences := 0
		out["wds.sequences_us"] += us(best(func() {
			sequences = 0
			for i, w := range p.workers {
				sequences += len(wds.MaximalValidSequences(w, reach[i], p.now, opts.WDS))
			}
		}))
		out["wds.sequences"] += float64(sequences)

		var sep *wds.Separation
		separate := best(func() { sep = wds.Separate(p.workers, p.tasks, p.now, opts.WDS) })
		out["wds.separate_ms"] += ms(separate)
		out["wds.graph_edges"] += float64(sep.Graph.Edges())
		out["wds.trees"] += float64(len(sep.Forest))
		for _, root := range sep.Forest {
			out["wds.max_tree_workers"] = max(out["wds.max_tree_workers"], float64(root.Size()))
		}

		comps := sep.Graph.Components(nil)
		fill := 0
		out["graphutil.fillin_ms"] += ms(best(func() {
			fill = -sep.Graph.Edges()
			for _, comp := range comps {
				h, _ := sep.Graph.FillIn(comp)
				fill += h.Edges()
			}
		}))
		out["graphutil.fill_edges"] += float64(fill)

		search := &assign.Search{Opts: opts}
		plan := best(func() { search.Plan(p.workers, p.tasks, p.now) })
		out["assign.search_plan_ms"] += ms(plan)
		out["assign.search_self_ms"] += ms(plan - separate)
		out["assign.search_nodes"] += float64(search.NodesLastPlan)

		greedy := &assign.Greedy{Opts: opts}
		out["assign.greedy_plan_us"] += us(best(func() { greedy.Plan(p.workers, p.tasks, p.now) }))

		if fw.HasValueModel() {
			out["assign.tvf_plan_ms"] += ms(best(func() { fw.Assign(p.workers, p.tasks, p.now) }))
		}
	}
	if queries > 0 {
		out["spatial.within_ns_per_query"] = float64(withinNS) / float64(queries)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
