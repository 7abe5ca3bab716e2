package nn

import (
	"math"
	"slices"

	"repro/internal/tensor"
)

// StepMemo carries a temporal trunk's values from one LastStep call to the
// next. A forecaster refreshes from a window that has slid by one vector since
// its last call, so every level's value at all but the newest step was
// computed before; with a memo, LastStep evaluates only what it cannot carry.
// It is the state cache of streaming dilated convolutions (Paine et al., "Fast
// Wavenet Generation Algorithm", arXiv 1611.09482), keyed by content.
//
// The memo keeps a bit copy of the last call's inputs and every value that
// call computed or carried, level by level and step by step. A call aligns its
// window with the previous one at the shift s that carries the most values:
// level l's value at the previous step t+s becomes the value at step t when
// step t's whole receptive field — inputs t−rf(l) … t, where rf(l) sums
// (taps−1)·dilation over the layers below l — lies inside the window and is
// Float64bits-equal to the inputs the value was computed from. Everything
// else is evaluated anew. A rewritten vector (a late task) therefore
// invalidates exactly the values whose field covers it, and a memo handed
// unrelated windows only misses. A carried value equals the recomputed one
// bit for bit: the same operations on the same bits.
//
// A StepMemo serves inference on one trunk: its values are the memo's, not
// the graph's, so a graph built through it is ended by Release, which leaves
// them alone, and never by Backward. It is not safe for concurrent use and
// must be Reset whenever the parameters change. The zero value is an empty
// memo.
type StepMemo struct {
	inputs []*tensor.Matrix // bit copies of the last call's inputs
	vals   []*tensor.Matrix // vals[l*len(inputs)+t]: level l at step t, nil when not kept
	spare  []*tensor.Matrix // backing store for the next call's vals
	eval   []bool           // eval[l*len(inputs)+t]: the last call computed level l at step t

	// LastStep's scratch, lent for one call: the steps it reads and their
	// nodes, by the vals index, and align's receptive fields.
	tables stepTables
	rf     []int
}

// Reset empties the memo.
func (m *StepMemo) Reset() {
	recycle(m.vals)
	m.vals, m.inputs, m.eval = m.vals[:0], m.inputs[:0], m.eval[:0]
}

// Evaluated lists, level by level (0 is the lift), the steps the last LastStep
// call computed rather than carried.
func (m *StepMemo) Evaluated() [][]int {
	n := len(m.inputs)
	if n == 0 {
		return nil
	}
	out := make([][]int, len(m.eval)/n)
	for i, e := range m.eval {
		if e {
			out[i/n] = append(out[i/n], i%n)
		}
	}
	return out
}

// align moves every value the new window can reuse to its new step, releases
// the rest, records the window and returns the table LastStep fills:
// vals[l*len(inputs)+t] is level l at step t, nil until computed.
func (m *StepMemo) align(inputs []*tensor.Matrix, layers []*GatedCausalConv) []*tensor.Matrix {
	m.rf = cleared(m.rf, len(layers)+1)
	rf := m.rf
	for l, g := range layers {
		rf[l+1] = rf[l] + max(g.Filter.reach(), g.Gate.reach())
	}
	best, most := -1, 0
	for s := range m.inputs {
		if c := m.carry(inputs, rf, s, nil); c > most {
			best, most = s, c
		}
	}
	next := cleared(m.spare, len(rf)*len(inputs))
	if best >= 0 {
		m.carry(inputs, rf, best, next)
	}
	recycle(m.vals) // what carry did not move
	m.vals, m.spare = next, m.vals[:0]
	m.eval = cleared(m.eval, len(next))

	m.inputs = slices.Grow(m.inputs[:0], len(inputs))[:len(inputs)]
	for t, x := range inputs {
		if c := m.inputs[t]; c == nil || !tensor.SameShape(c, x) {
			m.inputs[t] = tensor.New(x.Rows, x.Cols)
		}
		copy(m.inputs[t].Data, x.Data)
	}
	return m.vals
}

// carry counts the kept values that stay valid when the previous window's
// step t+s becomes step t of inputs, and moves them into next unless next is
// nil.
func (m *StepMemo) carry(inputs []*tensor.Matrix, rf []int, s int, next []*tensor.Matrix) int {
	n, pn := len(inputs), len(m.inputs)
	count, run := 0, 0 // run: equal inputs ending at step t
	for t := 0; t < n && t+s < pn; t++ {
		if sameBits(inputs[t], m.inputs[t+s]) {
			run++
		} else {
			run = 0
		}
		for l, field := range rf {
			// run > field: inputs t−field … t all lie in the window and match.
			if v := m.vals[l*pn+t+s]; v != nil && run > field {
				count++
				if next != nil {
					next[l*n+t], m.vals[l*pn+t+s] = v, nil
				}
			}
		}
	}
	return count
}

// keep makes the value LastStep just computed at index i of the table the
// memo's. The node stays in the graph, marked so that the caller's Release
// ends it without recycling the value.
func (m *StepMemo) keep(i int, n *Node) *Node {
	n.kept = true
	m.vals[i], m.eval[i] = n.Val, true
	return n
}

// recycle hands every matrix of vals back to tensor.New.
func recycle(vals []*tensor.Matrix) {
	for _, v := range vals {
		if v != nil {
			tensor.Recycle(v)
		}
	}
}

// sameBits reports whether a and b have one shape and bit-identical entries.
func sameBits(a, b *tensor.Matrix) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// cleared returns s resliced to length n with every element zero, reusing its
// storage when it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
