package stream

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// echoForecaster predicts one virtual task where each task it is handed was
// published, so a forecast shows — and costs — exactly what the feed held. It
// prunes nothing itself: what ages out, the feed dropped.
type echoForecaster struct{ span, horizon float64 }

func (e echoForecaster) Virtuals(published []*core.Task, now float64) []*core.Task {
	out := make([]*core.Task, 0, len(published))
	for _, p := range published {
		out = append(out, &core.Task{ID: -1 - p.ID, Loc: p.Loc, Pub: now, Exp: now + 40, Virtual: true})
	}
	return out
}
func (e echoForecaster) Span() float64        { return e.span }
func (e echoForecaster) HistorySpan() float64 { return e.horizon }

// TestDemandFeedDropsStaleHistory: the training history completes the early
// windows, is never modified in the caller's slice, and — the uptime
// regression — costs nothing once it has aged out: the same published tasks
// cost the same allocations and give the same forecast 1 h and 100 h into the
// stream.
func TestDemandFeedDropsStaleHistory(t *testing.T) {
	echo := echoForecaster{span: 15, horizon: 75}
	old, fresh := geo.Point{X: 1.5, Y: 1.5}, geo.Point{X: 0.5, Y: 0.5}
	var history []*core.Task
	for i := 0; i < 500; i++ {
		history = append(history, &core.Task{ID: i, Loc: old, Pub: -60 + float64(i%60)})
	}
	kept := append([]*core.Task(nil), history...)
	where := func(vts []*core.Task) string {
		seen := map[geo.Point]int{}
		for _, v := range vts {
			seen[v.Loc]++
		}
		return fmt.Sprint(seen)
	}

	// At t=1 nothing is published yet: the forecast is the training history.
	feed := NewDemandFeed(echo, history)
	if v, ok := feed.Refresh(1); !ok || where(v) != fmt.Sprint(map[geo.Point]int{old: 500}) {
		t.Fatalf("forecast at t=1 from the training history alone covers %s (refreshed %v), want all 500 tasks", where(v), ok)
	}
	if _, ok := feed.Refresh(2); ok {
		t.Fatal("refreshed again 1 s later, inside the forecaster's cadence")
	}
	measure := func(start float64) (float64, string) {
		feed := NewDemandFeed(echo, history)
		now := start
		tick := func() []*core.Task {
			now += echo.span
			feed.Publish(&core.Task{ID: 1000, Loc: fresh, Pub: now - 20})
			v, ok := feed.Refresh(now)
			if !ok {
				t.Fatalf("no refresh at %v, one cadence after the last", now)
			}
			return v
		}
		tick() // sheds the history
		if n := len(feed.published); n != 1 {
			t.Fatalf("%d tasks in the feed %v s past the horizon, want the one published since", n, now)
		}
		allocs := testing.AllocsPerRun(20, func() { tick() })
		return allocs, where(tick())
	}
	nearAllocs, near := measure(3600)
	farAllocs, far := measure(360_000)
	// Published every 15 s, 20 s back: four fall inside the 75 s horizon.
	if want := fmt.Sprint(map[geo.Point]int{fresh: 4}); nearAllocs != farAllocs || near != far || near != want {
		t.Fatalf("1 h in: %v allocations, forecast %s; 100 h in: %v allocations, forecast %s; want equal, %s",
			nearAllocs, near, farAllocs, far, want)
	}
	if len(history) != len(kept) {
		t.Fatal("the caller's history slice was truncated")
	}
	for i := range history {
		if history[i] != kept[i] {
			t.Fatal("the caller's history slice was reordered or cleared")
		}
	}

	// No forecaster, no feed: a nil one takes both calls.
	var none *DemandFeed
	none.Publish(history[0])
	if v, ok := none.Refresh(0); ok || v != nil {
		t.Fatal("a nil feed refreshed")
	}
}
