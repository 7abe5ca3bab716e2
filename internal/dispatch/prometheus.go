package dispatch

import (
	"fmt"
	"net/http"
	"strings"
)

// escapeHelp escapes a HELP string per the text exposition format (version
// 0.0.4): backslashes and line feeds must be escaped or a multi-line help
// text would corrupt the stream.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// prometheus serves the snapshot in the Prometheus text exposition format
// (version 0.0.4) — hand-rolled, since the repo deliberately has no module
// dependencies. Counter/gauge typing follows the snapshot semantics:
// lifetime totals are counters, point-in-time pool sizes and tiers gauges,
// and the epoch/stage wall-time distributions are native histograms with
// log-spaced buckets (real _bucket/_sum/_count series, not quantile gauges).
func (h *Handler) prometheus(w http.ResponseWriter, _ *http.Request) {
	m := h.d.Snapshot()
	epochHist, stageHists := h.d.Histograms()
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, escapeHelp(help), name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, escapeHelp(help), name, name, v)
	}
	gauge("datawa_now_seconds", "Next epoch instant on the logical clock.", m.Now)
	counter("datawa_epochs_total", "Planning epochs executed.", float64(m.Epochs))
	counter("datawa_fanned_epochs_total", "Epochs whose shards stepped on more than one goroutine.", float64(h.d.FannedEpochs()))
	counter("datawa_ingested_total", "Events accepted onto the ingest queue.", float64(m.Ingested))
	counter("datawa_applied_total", "Events that changed shard state.", float64(m.Applied))
	counter("datawa_unroutable_total", "Events that had no effect.", float64(m.Unroutable))
	gauge("datawa_queue_depth", "Current ingest backlog (queued + undue).", float64(m.QueueDepth))
	gauge("datawa_routed_workers", "Workers currently active.", float64(m.RoutedWorkers))
	gauge("datawa_routed_tasks", "Tasks currently open.", float64(m.RoutedTasks))
	gauge("datawa_routed_ghosts", "Live ghost replicas, summed over the shards.", float64(m.RoutedGhosts))
	counter("datawa_ghost_copies_total", "Ghost replicas created.", float64(m.GhostCopies))
	counter("datawa_ghost_hits_total", "Tasks won by a non-owner shard.", float64(m.GhostHits))
	counter("datawa_commit_conflicts_total", "Tasks committed by more than one shard in an epoch.", float64(m.CommitConflicts))
	counter("datawa_retractions_total", "Losing commits undone by arbitration.", float64(m.Retractions))
	counter("datawa_assigned_total", "Tasks assigned.", float64(m.Assigned))
	counter("datawa_expired_total", "Tasks expired unserved.", float64(m.Expired))
	counter("datawa_cancelled_total", "Tasks withdrawn by their requester.", float64(m.Cancelled))
	counter("datawa_shed_total", "Tasks terminally dropped by admission control.", float64(m.Shed))
	counter("datawa_deferred_total", "Admission-control deferral events.", float64(m.Deferred))
	counter("datawa_tier_demotions_total", "Governor ladder demotions.", float64(m.TierDemotions))
	counter("datawa_tier_promotions_total", "Governor ladder promotions.", float64(m.TierPromotions))
	gauge("datawa_worst_tier", "Deepest ladder tier any shard reached.", float64(m.WorstTier))
	counter("datawa_plan_calls_total", "Planner invocations.", float64(m.PlanCalls))
	counter("datawa_plan_time_seconds_total", "Wall time spent inside planners.", m.PlanTime.Seconds())
	fmt.Fprintf(&b, "# HELP datawa_epoch_wall_seconds Full epoch wall time (drain through arbitration), log-bucketed.\n")
	fmt.Fprintf(&b, "# TYPE datawa_epoch_wall_seconds histogram\n")
	epochHist.AppendProm(&b, "datawa_epoch_wall_seconds", "")
	fmt.Fprintf(&b, "# HELP datawa_stage_wall_seconds Per-stage epoch wall time, log-bucketed; every stage observes once per epoch.\n")
	fmt.Fprintf(&b, "# TYPE datawa_stage_wall_seconds histogram\n")
	for _, sh := range stageHists {
		sh.Data.AppendProm(&b, "datawa_stage_wall_seconds", fmt.Sprintf("stage=%q", sh.Stage))
	}
	fmt.Fprintf(&b, "# HELP datawa_shard_tier Current degradation-ladder tier per shard (0 = full planner).\n")
	fmt.Fprintf(&b, "# TYPE datawa_shard_tier gauge\n")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "datawa_shard_tier{shard=\"%d\"} %d\n", s.Shard, s.Tier)
	}
	fmt.Fprintf(&b, "# HELP datawa_shard_workers Active workers per shard.\n")
	fmt.Fprintf(&b, "# TYPE datawa_shard_workers gauge\n")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "datawa_shard_workers{shard=\"%d\"} %d\n", s.Shard, s.Workers)
	}
	fmt.Fprintf(&b, "# HELP datawa_shard_open_tasks Open tasks per shard.\n")
	fmt.Fprintf(&b, "# TYPE datawa_shard_open_tasks gauge\n")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "datawa_shard_open_tasks{shard=\"%d\"} %d\n", s.Shard, s.Open)
	}
	fmt.Fprintf(&b, "# HELP datawa_shard_shed_total Tasks terminally shed from this shard's open pool by admission control.\n")
	fmt.Fprintf(&b, "# TYPE datawa_shard_shed_total counter\n")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "datawa_shard_shed_total{shard=\"%d\"} %d\n", s.Shard, s.Stats.Shed)
	}
	fmt.Fprintf(&b, "# HELP datawa_plan_work_total Planner work per shard, in distance checks: the governor's cost (assign.Planner.Work).\n")
	fmt.Fprintf(&b, "# TYPE datawa_plan_work_total counter\n")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "datawa_plan_work_total{shard=\"%d\"} %d\n", s.Shard, s.Stats.PlanWork)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
