package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	datawa "repro"
)

// traceFile is what a traced run writes to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Epochs   int    `json:"epochs"`
	// Spans is every span of the traced replay; SelfNS maps a span id to its
	// duration minus what its children cover.
	Spans  []span        `json:"spans"`
	SelfNS map[int]int64 `json:"self_ns"`
	// SnapshotWaitMS and SnapshotLateMS are the operator probe's per-read
	// waits and generator lateness, when the workload runs it.
	SnapshotWaitMS []float64 `json:"snapshot_wait_ms,omitempty"`
	SnapshotLateMS []float64 `json:"snapshot_late_ms,omitempty"`
}

// traced measures the per-layer metrics on the run's first variant: one plain
// replay for reference, one replay with the recorder, the dispatcher's stage
// spans and its task ledger on, then the crowd-instant probes. The traced
// replay is checked against the plain one, its ledger is audited, and its
// spans are written out.
func traced(s spec, p *prepared, o options, chk *checker, can *canary, out io.Writer) (map[string]float64, [][]replay, error) {
	tr := p.trs[0]
	epochs := tr.epochs(s.step)
	d, err := s.dispatcher(p.fw, tr, datawa.ObsConfig{})
	if err != nil {
		return nil, nil, err
	}
	plain := runReplay(d, tr, s.step, nil)
	can.read()

	// The span ring holds the whole replay (it is read before the drain); the
	// ledger holds every task, so the audit covers the full population.
	d, err = s.dispatcher(p.fw, tr, datawa.ObsConfig{Spans: epochs, LedgerTasks: len(tr.sc.Tasks) + 1024})
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder(epochs)
	var waits, late []float64
	if s.operatorProbe {
		stop := operatorProbe(d)
		rec.atT1 = func() { waits, late = stop() }
	}
	withSpans := runReplay(d, tr, s.step, rec)
	can.read()
	chk.checkLedger(d, tr, withSpans)

	m := layerMetrics(rec, withSpans, len(tr.events), s.shards)
	m["trace_overhead_pct"] = 100 * (withSpans.wall.Seconds()/plain.wall.Seconds() - 1)
	sortedWaits := sortedCopy(waits)
	m["dispatch.snapshot_wait_p95_ms"] = percentile(sortedWaits, 0.95)
	if len(waits) > 0 {
		fmt.Fprintf(out, "operator probe: %d Snapshot reads at 20 Hz, wait p50 %.2f p95 %.2f max %.2f ms; generator late p95 %.2f ms\n",
			len(waits), percentile(sortedWaits, 0.5), percentile(sortedWaits, 0.95), percentile(sortedWaits, 1), percentile(sortedCopy(late), 0.95))
	}
	m["predict.train_demand_s"] = p.trainDemand
	m["tvf.train_value_s"] = p.trainValue
	m["workload.generate_ms"] = p.generate * 1e3
	m["dispatch.new_ms"] = p.newDispatcher * 1e3
	m["warmup_s"] = p.warmup
	probeLayers(crowdPools(tr, s.step), p.fw, m)
	can.read()
	spins := sortedCopy(can.readings)
	m["host.spin_ms_min"] = spins[0]
	m["host.spin_ms_median"] = percentile(spins, 0.5)
	m["host.spin_ms_max"] = spins[len(spins)-1]

	file := traceFile{
		Workload: s.name, Seed: o.seed, Epochs: epochs,
		Spans: rec.spans, SelfNS: selfTimes(rec.spans),
		SnapshotWaitMS: waits, SnapshotLateMS: late,
	}
	path := filepath.Join(o.outDir, "trace-"+s.name+".json")
	if err := writeJSON(path, file); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "traced replay: %d spans written to %s; wall %.3f s against %.3f s plain\n",
		len(rec.spans), path, withSpans.wall.Seconds(), plain.wall.Seconds())
	return m, [][]replay{{plain, withSpans}}, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerMetrics folds the traced replay's spans and final snapshot into the
// per-layer metrics that come from the replay itself.
func layerMetrics(rec *recorder, r replay, events, shards int) map[string]float64 {
	total := make(map[string]int64)
	// Per epoch, the slowest shard's Step and the sum over shards.
	slowest := make([]int64, len(rec.ticks))
	var shardSteps int64
	for _, s := range rec.spans {
		total[s.Name] += s.DurNS
		if s.Name == spanShardStep && s.Epoch < len(slowest) {
			slowest[s.Epoch] = max(slowest[s.Epoch], s.DurNS)
			shardSteps += s.DurNS
		}
	}
	step := sumNS(slowest)
	stage := func(name string) int64 { return total[spanStagePrefix+name] }
	tick := total[spanTick]
	// What the six stage spans leave of the externally timed ticks. The step
	// stage spans the fork and join around the shards, so it is a little more
	// than the slowest shard's Step reported as dispatch.step_ms_total.
	other := tick - stage("drain") - stage("admission") - stage("reghost") - stage("forecast") - stage("step") - stage("arbitration")

	end := r.end
	var plan int64
	for _, sh := range end.Shards {
		plan += sh.Stats.PlanTime.Nanoseconds()
	}
	depth := 0
	for _, snap := range rec.pre {
		depth = max(depth, snap.QueueDepth)
	}
	series := msSeries(r.tickNS)
	perEvent := func(ns int64) float64 { return float64(ns) / float64(events) }
	toMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := map[string]float64{
		"wire.encode_ns_per_event":      perEvent(total[spanEncode]),
		"wire.decode_ns_per_event":      perEvent(total[spanDecode]),
		"wire.bytes_per_event":          float64(r.wireBytes) / float64(events),
		"dispatch.ingest_ns_per_event":  perEvent(total[spanIngest]),
		"dispatch.tick_ms_total":        toMS(tick),
		"dispatch.drain_ms_total":       toMS(stage("drain")),
		"dispatch.admission_ms_total":   toMS(stage("admission")),
		"dispatch.reghost_ms_total":     toMS(stage("reghost")),
		"dispatch.arbitration_ms_total": toMS(stage("arbitration")),
		"dispatch.other_ms_total":       toMS(other),
		"dispatch.step_ms_total":        toMS(step),
		"dispatch.shard_skew":           0,
		"dispatch.forecast_ms_total":    toMS(stage("forecast")),
		"stream.repositions":            float64(end.Repositions),
		"dispatch.queue_depth_max":      float64(depth),
		"dispatch.unroutable":           float64(end.Unroutable),
		"dispatch.ghost_copies":         float64(end.GhostCopies),
		"dispatch.commit_conflicts":     float64(end.CommitConflicts),
		"dispatch.retractions":          float64(end.Retractions),
		"dispatch.cancelled":            float64(end.Cancelled),
		"stream.plan_ms_total":          toMS(plan),
		"stream.plan_calls":             float64(end.PlanCalls),
		"stream.step_self_ms_total":     toMS(shardSteps - plan),
		"assign.incremental_hits":       float64(end.IncrementalHits),
		"assign.components_replanned":   float64(end.ComponentsReplanned),
		"assign.reuse_ratio":            0,
		"epoch_p99_ms":                  percentile(series, 0.99),
		"epoch_max_ms":                  percentile(series, 1),
		"assign.tvf_plan_ms":            0,
	}
	if shardSteps > 0 {
		m["dispatch.shard_skew"] = float64(step) / (float64(shardSteps) / float64(shards))
	}
	if n := end.IncrementalHits + end.ComponentsReplanned; n > 0 {
		m["assign.reuse_ratio"] = float64(end.IncrementalHits) / float64(n)
	}
	return m
}
