package wds

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graphutil"
)

// refForest is the dependency graph and RTC construction as they stood before
// components and trees were built from task groups and bit rows, kept as the
// oracle of TestTreeMatchesReference: the graph takes one AddEdge per worker
// pair per shared task, components are a BFS over its CSR lists, and every
// candidate clique is probed by a BFS over the component through those lists.
type refForest struct {
	g       *graphutil.Graph
	ch      graphutil.Chordal
	inComp  []bool
	removed []bool
	seen    []bool
	queue   []int32
	touched []int32
	workers []*core.Worker
	nextID  int32
}

// refSeparate returns sep's components, the RTC tree of each, Σ|Q_w| and the
// graph's edge count, computed from sep's Sets alone.
func refSeparate(sep *Separation) (comps [][]int, forest []*TreeNode, sequences, edges int) {
	n := len(sep.Workers)
	r := &refForest{
		g:       graphutil.New(n),
		inComp:  make([]bool, n),
		removed: make([]bool, n),
		seen:    make([]bool, n),
		workers: sep.Workers,
	}
	// Invert the reachable relation task → workers, then connect the workers
	// sharing each task.
	byTask := make([][]int32, len(sep.Tasks))
	var reaching []int32
	for i := range sep.Workers {
		ws := &sep.Sets[i]
		if len(ws.Index) == 0 {
			continue
		}
		reaching = append(reaching, int32(i))
		sequences += len(ws.Masks)
		for _, t := range ws.Index {
			byTask[t] = append(byTask[t], int32(i))
		}
	}
	for _, group := range byTask {
		for a, u := range group {
			for _, v := range group[a+1:] {
				r.g.AddEdge(int(u), int(v))
			}
		}
	}
	for _, s := range reaching {
		if r.seen[s] {
			continue
		}
		var comp []int
		r.queue = append(r.queue[:0], s)
		r.seen[s] = true
		for head := 0; head < len(r.queue); head++ {
			v := r.queue[head]
			comp = append(comp, int(v))
			for _, u := range r.g.Neighbors(int(v)) {
				if !r.seen[u] {
					r.seen[u] = true
					r.queue = append(r.queue, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	for _, comp := range comps {
		for _, v := range comp {
			r.seen[v] = false
		}
	}
	for _, comp := range comps {
		r.nextID = 0
		forest = append(forest, r.build(comp))
	}
	return comps, forest, sequences, r.g.Edges()
}

func (r *refForest) newNode(clique []int) *TreeNode {
	index := make([]int32, len(clique))
	for i, v := range clique {
		index[i] = int32(v)
	}
	slices.SortFunc(index, func(x, y int32) int { return r.workers[x].ID - r.workers[y].ID })
	n := &TreeNode{Index: index, ID: r.nextID}
	r.nextID++
	return n
}

func (r *refForest) build(comp []int) *TreeNode {
	if len(comp) == 0 {
		return nil
	}
	if len(comp) <= 2 {
		return r.newNode(comp)
	}
	cliques := r.ch.Cliques(r.g, comp)
	for _, v := range comp {
		r.inComp[v] = true
	}
	// Choose X′ maximizing the number of remaining components; ties prefer
	// the larger clique, then the earlier one.
	bestIdx, bestComps := -1, -1
	for ci, clique := range cliques {
		for _, v := range clique {
			r.removed[v] = true
		}
		count, _ := r.residual(comp, false)
		for _, v := range clique {
			r.removed[v] = false
		}
		better := false
		switch {
		case count > bestComps:
			better = true
		case count == bestComps && bestIdx >= 0 && len(clique) > len(cliques[bestIdx]):
			better = true
		}
		if bestIdx < 0 || better {
			bestIdx, bestComps = ci, count
		}
	}
	for _, v := range cliques[bestIdx] {
		r.removed[v] = true
	}
	_, bestResidual := r.residual(comp, true)
	for _, v := range cliques[bestIdx] {
		r.removed[v] = false
	}
	for _, v := range comp {
		r.inComp[v] = false
	}
	node := r.newNode(cliques[bestIdx])
	for _, sub := range bestResidual {
		if child := r.build(sub); child != nil {
			node.Children = append(node.Children, child)
		}
	}
	return node
}

// residual counts the components of comp minus the removed vertices and, with
// collect set, returns them, each ascending, ordered by smallest vertex.
func (r *refForest) residual(comp []int, collect bool) (int, [][]int) {
	count := 0
	var comps [][]int
	touched := r.touched[:0]
	for _, s := range comp {
		if r.seen[s] || r.removed[s] {
			continue
		}
		count++
		var cc []int
		r.queue = append(r.queue[:0], int32(s))
		r.seen[s] = true
		touched = append(touched, int32(s))
		for head := 0; head < len(r.queue); head++ {
			v := r.queue[head]
			if collect {
				cc = append(cc, int(v))
			}
			for _, u := range r.g.Neighbors(int(v)) {
				if r.inComp[u] && !r.removed[u] && !r.seen[u] {
					r.seen[u] = true
					touched = append(touched, u)
					r.queue = append(r.queue, u)
				}
			}
		}
		if collect {
			sort.Ints(cc)
			comps = append(comps, cc)
		}
	}
	for _, v := range touched {
		r.seen[v] = false
	}
	r.touched = touched[:0]
	return count, comps
}
