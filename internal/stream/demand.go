package stream

import (
	"math"
	"slices"

	"repro/internal/core"
)

// Forecaster supplies virtual (predicted) tasks at prediction instants.
// predict.Forecaster and predict.ScenarioSampler satisfy this interface.
type Forecaster interface {
	// Virtuals returns predicted tasks given every real task published
	// before now, as a fresh slice the caller may keep.
	Virtuals(published []*core.Task, now float64) []*core.Task
	// Span returns the prediction cadence in seconds.
	Span() float64
	// HistorySpan returns the history horizon in seconds: tasks published
	// before now − HistorySpan() no longer influence predictions.
	HistorySpan() float64
}

// DemandFeed is the published-task history a Forecaster reads — the one place
// predicted tasks come from (Algorithm 3 with Section III's predictor): the
// driver publishes each real task as it arrives and asks for a refresh at
// every planning instant. The feed starts from the training history, which is
// just the tasks published before the stream began, drops what has aged past
// the forecaster's horizon so it does not grow with uptime, and forecasts at
// the forecaster's cadence. A nil feed publishes nothing and never refreshes.
//
// A DemandFeed is single-goroutine, like the Machine it feeds.
//
//datawa:serialized
type DemandFeed struct {
	f         Forecaster
	published []*core.Task // owned: pruned in place
	last      float64      // instant of the last refresh
}

// NewDemandFeed returns a feed for f seeded with history, which is copied.
//
//datawa:locked(DemandFeed) the constructor owns the fresh value
func NewDemandFeed(f Forecaster, history []*core.Task) *DemandFeed {
	return &DemandFeed{f: f, published: slices.Clone(history), last: math.Inf(-1)}
}

// Publish records a real task: every submit, expired-on-arrival included, is
// demand the model should see.
func (d *DemandFeed) Publish(s *core.Task) {
	if d != nil {
		d.published = append(d.published, s)
	}
}

// Refresh returns the virtual tasks to plan with from now on, or ok false
// when the forecaster's cadence has not come round (the previous set stands).
func (d *DemandFeed) Refresh(now float64) (virtuals []*core.Task, ok bool) {
	if d == nil || now-d.last < d.f.Span() {
		return nil, false
	}
	d.last = now
	cutoff := now - d.f.HistorySpan()
	d.published = slices.DeleteFunc(d.published, func(s *core.Task) bool { return s.Pub < cutoff })
	return d.f.Virtuals(d.published, now), true
}
