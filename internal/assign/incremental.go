package assign

import (
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/spatial"
)

// DirtyPlanner is the incremental-replanning contract between a driver that
// tracks pool changes (stream.Machine with MachineConfig.DirtyGrid) and a
// planner that can reuse work across planning instants (Incremental).
// PlanDirty receives the set of grid cells touched since the previous
// invocation and must return exactly the plan a from-scratch Plan call would
// — incrementality changes the cost of the call, never its answer.
type DirtyPlanner interface {
	Planner
	PlanDirty(workers []*core.Worker, tasks []*core.Task, now float64, dirty spatial.CellSet) core.Plan
}

// AddWorkerCells adds to set the grid cells a worker positioned at p with the
// given reach radius can influence — every cell overlapped by the reachability
// disk around p clamped to the grid's region, and the worker's own cell, which
// is all there is when the reach is negative or NaN — and returns the own
// cell. Clamping mirrors task-cell routing (Grid.CellOf snaps off-map points
// to boundary cells) and is sound because coordinate clamping is a
// contraction — any task within reach of p has its clamped cell inside the
// clamped disk. The dirty-marking side (stream.Machine) and the partition
// side (Incremental) both use this function, so an invalidation always covers
// the membership it must refresh.
//
//datawa:hotpath
func AddWorkerCells(set spatial.CellSet, g geo.Grid, p geo.Point, reach float64) int {
	own := g.CellOf(p)
	set.AddDisk(g, g.Region.Clamp(p), reach)
	set.Add(own)
	return own
}

// IncrementalStats counts an Incremental planner's reuse behavior. Counters
// are cumulative over the planner's lifetime.
type IncrementalStats struct {
	// Plans is the number of planning instants served; FullPlans the subset
	// planned from scratch (cold cache, no reusable component, or dirty
	// fraction past the threshold).
	Plans     int64
	FullPlans int64
	// ComponentsReplanned counts components handed to the wrapped planner;
	// ComponentsReused counts cached quiet components spliced instead of
	// replanned — the "incremental hits" of the dispatch metrics.
	ComponentsReplanned int64
	ComponentsReused    int64
	// WorkersSkipped and TasksSkipped count pool entries the wrapped planner
	// never saw thanks to reuse.
	WorkersSkipped int64
	TasksSkipped   int64
}

// Incremental wraps a Planner with dirty-region replanning. It partitions
// each planning instant's pool into connected components over the
// cell-granular reachability graph — workers own the cells of their reach
// disk (AddWorkerCells), tasks their own cell, and overlapping cell sets merge
// — re-plans only the components invalidated since the previous instant, and
// splices the cached outcome of the rest.
//
// Why this is byte-identical to full replanning, not an approximation: under
// adaptive (non-FTA) semantics a component whose plan assigns anything
// mutates machine state immediately — commits remove tasks and set workers
// in motion — so its cells are dirtied and it is replanned anyway. The only
// cacheable outcome is the empty plan, and an empty component plan proves no
// member worker had any valid candidate sequence (any usable sequence has
// positive objective value, so both the exact search and the greedy paths
// would have taken one). Validity of a sequence over a fixed pool only
// shrinks as the clock advances, and cell-disjoint components cannot
// exchange tasks, so a quiet empty component stays empty until an
// invalidation touches its cells — and removing whole components from the
// wrapped planner's input removes whole RTC trees without perturbing the
// per-tree search budgets of the rest. The scenario-atlas equivalence tests
// (internal/dispatch) pin the identity across archetypes, methods, and shard
// counts.
//
// An Incremental is single-goroutine, like the Machine that drives it.
type Incremental struct {
	full Planner
	grid geo.Grid

	comps []*planComponent // cached partition; nil = cold
	stats IncrementalStats

	// Per-instant scratch, reused so a steady-state PlanDirty allocates only
	// the component list it caches. free recycles planComponents dropped from
	// the previous cache (their member/cell storage keeps its capacity).
	free   []*planComponent
	cells  spatial.CellSet // one task's cell
	masks  []uint64        // cell sets being merged, len(cells) words apiece
	compOf []int32         // merged set → its component's position, -1 = none yet
	tcell  []int32         // per task, its cell
	// The pool workers' disks at this partition and, to be overwritten by the
	// next one, at the one before: a worker that has not moved since — most
	// have not — has its disk copied instead of rasterised.
	disks, oldDisks []workerDisk
	diskCells       []uint64 // disks[i]'s cells at [i*len(cells):], likewise
	oldDiskCells    []uint64
	retained        []*planComponent
	skipW           map[int]bool
	skipT           map[int]bool
	rw              []*core.Worker
	rt              []*core.Task
}

// maxDirtyFraction is the fraction of the worker pool above which an instant
// is replanned from scratch instead of incrementally: cache bookkeeping is
// pure overhead when almost everything is dirty.
const maxDirtyFraction = 0.9

// NewIncremental wraps full with dirty-region replanning over the given
// grid. A degenerate grid (zero cells) yields a wrapper that plans from
// scratch on every instant — callers need not special-case it.
func NewIncremental(full Planner, grid geo.Grid) *Incremental {
	return &Incremental{full: full, grid: grid, cells: spatial.NewCellSet(max(grid.Cells(), 0))}
}

// Name implements Planner.
func (inc *Incremental) Name() string { return "Incremental(" + inc.full.Name() + ")" }

// SetParallelism forwards the planner fan-out knob to the wrapped planner
// when it supports one (assign.Search).
func (inc *Incremental) SetParallelism(p int) {
	if sp, ok := inc.full.(interface{ SetParallelism(int) }); ok {
		sp.SetParallelism(p)
	}
}

// Stats returns the cumulative reuse counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Plan implements Planner: a from-scratch plan that also rebuilds the
// component cache, used when the driver has no dirty information.
func (inc *Incremental) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	inc.stats.Plans++
	return inc.fullPlan(workers, tasks, now)
}

// PlanDirty implements DirtyPlanner. dirty is the set of grid cells touched
// since the previous invocation; the caller retains ownership and may clear
// it after the call.
func (inc *Incremental) PlanDirty(workers []*core.Worker, tasks []*core.Task, now float64, dirty spatial.CellSet) core.Plan {
	inc.stats.Plans++
	if inc.comps == nil || inc.grid.Cells() <= 0 || len(workers) == 0 {
		return inc.fullPlan(workers, tasks, now)
	}

	// A cached component is reusable when it assigned nothing last instant
	// and no invalidation touched its cells since.
	retained := inc.retained[:0]
	if inc.skipW == nil {
		inc.skipW = make(map[int]bool)
		inc.skipT = make(map[int]bool)
	} else {
		clear(inc.skipW)
		clear(inc.skipT)
	}
	for _, c := range inc.comps {
		if c.empty && !c.cells.Intersects(dirty) {
			retained = append(retained, c)
			for _, id := range c.workers {
				inc.skipW[id] = true
			}
			for _, id := range c.tasks {
				inc.skipT[id] = true
			}
		}
	}
	inc.retained = retained
	if len(retained) == 0 {
		return inc.fullPlan(workers, tasks, now)
	}

	// rw/rt are scratch: every planner consumes its worker and task slices
	// within the Plan call (copying what it keeps), so reusing the backing
	// arrays across instants is safe.
	rw := inc.rw[:0]
	for _, w := range workers {
		if !inc.skipW[w.ID] {
			rw = append(rw, w)
		}
	}
	inc.rw = rw
	// Past the threshold everything is replanned from scratch — the
	// retained components are NOT spliced, so they don't count as hits.
	if float64(len(rw)) > maxDirtyFraction*float64(len(workers)) {
		return inc.fullPlan(workers, tasks, now)
	}
	rt := inc.rt[:0]
	for _, s := range tasks {
		if !inc.skipT[s.ID] {
			rt = append(rt, s)
		}
	}
	inc.rt = rt

	// Only now are the retained components marked: every fallback above goes
	// through fullPlan, whose partition recycles the whole previous cache.
	for _, c := range retained {
		c.keep = true
	}
	plan := inc.full.Plan(rw, rt, now)
	fresh := inc.partition(rw, rt, plan)
	inc.stats.ComponentsReplanned += int64(len(fresh))
	inc.stats.ComponentsReused += int64(len(retained))
	inc.stats.WorkersSkipped += int64(len(workers) - len(rw))
	inc.stats.TasksSkipped += int64(len(tasks) - len(rt))
	inc.comps = append(fresh, retained...)
	return plan
}

// fullPlan plans the whole pool from scratch and rebuilds the cache.
func (inc *Incremental) fullPlan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	inc.stats.FullPlans++
	plan := inc.full.Plan(workers, tasks, now)
	if inc.grid.Cells() > 0 {
		inc.comps = inc.partition(workers, tasks, plan)
		inc.stats.ComponentsReplanned += int64(len(inc.comps))
	}
	return plan
}

// workerDisk identifies one worker's cell set: whose it is, where the worker
// stood and how far it reached when the set was rasterised, and its own cell.
type workerDisk struct {
	id    int
	loc   geo.Point
	reach float64
	own   int32
}

// planComponent is one cached connected component of the cell-granular
// reachability graph: its covered cells, its member ids, and whether its
// last plan assigned anything.
type planComponent struct {
	cells   spatial.CellSet
	workers []int // member worker ids
	tasks   []int // member task ids (virtuals carry their negative ids)
	empty   bool  // last plan assigned nothing to these workers
	keep    bool  // spliced into the next cache; not for the freelist
}

// partition groups the pool into connected components: each worker's reach
// disk claims its cells, each task its own cell, and cell overlap merges.
// The component list is ordered by first appearance in the (deterministic)
// pool order, members in pool order within each. Components are pairwise
// disjoint, so there are never more of them than grid cells; a member costs
// one AND per word per component to place.
func (inc *Incremental) partition(workers []*core.Worker, tasks []*core.Task, plan core.Plan) []*planComponent {
	inc.recycle()

	// Merge every member's cells into pairwise disjoint sets — the
	// components' cell sets — remembering one cell per member.
	words := len(inc.cells)
	masks, tcell := inc.masks[:0], inc.tcell[:0]
	last, lastCells := inc.disks, inc.diskCells
	disks := inc.oldDisks[:0]
	diskCells := slices.Grow(inc.oldDiskCells[:0], len(workers)*words)[:len(workers)*words]
	at := 0 // walks last alongside the pool; both ascend by id when the pool does
	for i, w := range workers {
		for at < len(last) && last[at].id < w.ID {
			at++
		}
		d := workerDisk{id: w.ID, loc: w.Loc, reach: w.Reach}
		set := spatial.CellSet(diskCells[i*words : (i+1)*words])
		if at < len(last) && last[at].id == d.id && last[at].loc == d.loc && last[at].reach == d.reach {
			d.own = last[at].own
			copy(set, lastCells[at*words:])
		} else {
			set.Reset()
			d.own = int32(AddWorkerCells(set, inc.grid, w.Loc, w.Reach))
		}
		disks = append(disks, d)
		masks = mergeCells(masks, set)
	}
	inc.disks, inc.diskCells, inc.oldDisks, inc.oldDiskCells = disks, diskCells, last, lastCells
	for _, s := range tasks {
		c := inc.grid.CellOf(s.Loc)
		tcell = append(tcell, int32(c))
		inc.cells.Reset()
		inc.cells.Add(c)
		masks = mergeCells(masks, inc.cells)
	}
	inc.masks, inc.tcell = masks, tcell
	inc.compOf = inc.compOf[:0]
	for range len(masks) / words {
		inc.compOf = append(inc.compOf, -1)
	}

	var comps []*planComponent
	for i, w := range workers {
		var c *planComponent
		comps, c = inc.compAt(comps, int(disks[i].own))
		c.workers = append(c.workers, w.ID)
	}
	for j, s := range tasks {
		var c *planComponent
		comps, c = inc.compAt(comps, int(tcell[j]))
		c.tasks = append(c.tasks, s.ID)
	}
	// Every planned worker is a pool member, so its component exists; its own
	// cell names it without a lookup by id.
	for _, a := range plan {
		_, c := inc.compAt(comps, inc.grid.CellOf(a.Worker.Loc))
		c.empty = false
	}
	return comps
}

// mergeCells folds one member's cell set into the disjoint sets of masks
// (len(cells) words apiece): the sets it overlaps become one set that also
// holds cells, or cells starts a set of its own.
//
//datawa:hotpath
func mergeCells(masks []uint64, cells spatial.CellSet) []uint64 {
	words := len(cells)
	into := spatial.CellSet(nil)
	for at := 0; at < len(masks); at += words {
		m := spatial.CellSet(masks[at : at+words])
		if !m.Intersects(cells) {
			continue
		}
		if into == nil {
			into = m
			continue
		}
		// A second overlapped set: fold it into the first and fill its slot
		// with the last set, which then takes this turn of the loop.
		into.Union(m)
		copy(m, masks[len(masks)-words:])
		masks = masks[:len(masks)-words]
		at -= words
	}
	if into == nil {
		return append(masks, cells...)
	}
	into.Union(cells)
	return masks
}

// compAt returns comps extended (if needed) with the component whose cells
// include cell — a cell some member was merged with — plus that component.
// New components come from the freelist when possible.
func (inc *Incremental) compAt(comps []*planComponent, cell int) ([]*planComponent, *planComponent) {
	words := len(inc.cells)
	k := 0
	mask := spatial.CellSet(inc.masks[:words])
	for !mask.Has(cell) {
		k++
		mask = inc.masks[k*words : (k+1)*words]
	}
	if i := inc.compOf[k]; i >= 0 {
		return comps, comps[i]
	}
	var c *planComponent
	if n := len(inc.free); n > 0 {
		c = inc.free[n-1]
		inc.free[n-1] = nil
		inc.free = inc.free[:n-1]
		c.empty = true
	} else {
		c = &planComponent{empty: true}
	}
	c.cells = append(c.cells[:0], mask...)
	inc.compOf[k] = int32(len(comps))
	return append(comps, c), c
}

// recycle moves the previous cache's dropped components to the freelist,
// keeping their member/cell capacity; components marked keep are spliced
// into the next cache by the caller and only have their mark cleared.
func (inc *Incremental) recycle() {
	for i, c := range inc.comps {
		inc.comps[i] = nil
		if c.keep {
			c.keep = false
			continue
		}
		c.workers = c.workers[:0]
		c.tasks = c.tasks[:0]
		inc.free = append(inc.free, c)
	}
	inc.comps = inc.comps[:0]
}
