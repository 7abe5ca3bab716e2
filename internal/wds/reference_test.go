package wds

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
)

// refSequencesByKey is the SetKey-deduped generator this package used for
// reachable sets too large for a 64-bit index mask before the two regimes were
// unified on multi-word masks, kept verbatim as the reference oracle.
func refSequencesByKey(w *core.Worker, rs []*core.Task, now float64, o Options) []core.Sequence {
	type best struct {
		seq        core.Sequence
		completion float64
	}
	bests := make(map[string]best)

	var cur core.Sequence
	used := make([]bool, len(rs))

	var extend func(loc geo.Point, t float64)
	extend = func(loc geo.Point, t float64) {
		if len(cur) > 0 {
			key := cur.SetKey()
			if b, ok := bests[key]; !ok || t < b.completion {
				bests[key] = best{seq: cur.Clone(), completion: t}
			}
		}
		if len(cur) >= o.MaxSeqLen {
			return
		}
		for i, s := range rs {
			if used[i] {
				continue
			}
			arrive := t + o.Travel.Time(loc, s.Loc)
			if arrive < s.Pub {
				arrive = s.Pub
			}
			if arrive >= s.Exp || arrive >= w.Off {
				continue
			}
			if geo.Dist(w.Loc, s.Loc) > w.Reach {
				continue
			}
			used[i] = true
			cur = append(cur, s)
			extend(s.Loc, arrive)
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	extend(w.Loc, now)

	out := make([]core.Sequence, 0, len(bests))
	completions := make(map[string]float64, len(bests))
	for key, b := range bests {
		out = append(out, b.seq)
		completions[key] = b.completion
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		ci, cj := completions[out[i].SetKey()], completions[out[j].SetKey()]
		if ci != cj {
			return ci < cj
		}
		return lessIDs(out[i], out[j])
	})
	if len(out) > o.MaxSequences {
		out = out[:o.MaxSequences]
	}
	return out
}
