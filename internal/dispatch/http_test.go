package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return out
}

func TestHTTPLifecycle(t *testing.T) {
	d := singleShard(searchFactory())
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	// Liveness.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", err, resp.Status)
	}
	resp.Body.Close()

	// Worker online + task submit through the API.
	postJSON(t, srv, "/v1/workers", `{"id":1,"x":0,"y":0,"reach":1,"avail":1000}`)
	taskResp := postJSON(t, srv, "/v1/tasks", `{"x":0.1,"y":0,"valid":200}`)
	taskID := int(taskResp["id"].(float64))
	if taskID < syntheticIDBase {
		t.Fatalf("server-assigned task id %d below synthetic base", taskID)
	}

	// Events take effect at the next epoch; drive the clock as Serve would.
	d.Advance(5)

	// Plan query: the worker must be committed to (or planning toward) the
	// submitted task.
	var wp stream.WorkerPlan
	getJSON(t, srv, "/v1/plan?worker=1", &wp)
	if wp.Worker != 1 {
		t.Fatalf("plan for worker %d, want 1", wp.Worker)
	}
	if wp.Committed != taskID && !contains(wp.Next, taskID) {
		t.Fatalf("task %d absent from plan %+v", taskID, wp)
	}

	// Metrics snapshot.
	var m Metrics
	getJSON(t, srv, "/v1/metrics", &m)
	if m.Assigned != 1 {
		t.Fatalf("assigned = %d, want 1", m.Assigned)
	}
	if m.Ingested != 2 || m.Applied != 2 {
		t.Fatalf("ingested/applied = %d/%d, want 2/2", m.Ingested, m.Applied)
	}
	if m.Epochs == 0 {
		t.Fatal("metrics must report executed epochs")
	}

	// Unknown worker: 404.
	r, err := http.Get(srv.URL + "/v1/plan?worker=99")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown worker: status %d, want 404", r.StatusCode)
	}
}

func TestHTTPValidation(t *testing.T) {
	d := singleShard(searchFactory())
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	bad := []struct{ path, body string }{
		{"/v1/workers", `{"id":0,"reach":1,"avail":10}`},
		{"/v1/workers", `{"id":1,"reach":-1,"avail":10}`},
		{"/v1/tasks", `{"x":1,"valid":0}`},
		{"/v1/tasks", `not json`},
		{"/v1/workers", `{"unknown_field":true}`},
		// Non-finite coordinates must never reach shard routing: overflowing
		// numbers are rejected at decode time, NaN/Infinity tokens are not
		// valid JSON, and the handlers' finite() guard backstops both.
		{"/v1/workers", `{"id":1,"x":1e999,"y":0,"reach":1,"avail":10}`},
		{"/v1/workers", `{"id":1,"x":0,"y":-1e999,"reach":1,"avail":10}`},
		{"/v1/workers", `{"id":1,"x":NaN,"y":0,"reach":1,"avail":10}`},
		{"/v1/tasks", `{"id":1,"x":1e999,"y":0,"valid":10}`},
		{"/v1/tasks", `{"id":1,"x":0,"y":Infinity,"valid":10}`},
		{"/v1/workers/heartbeat", `{"id":1,"x":1e999,"y":0}`},
		{"/v1/workers/heartbeat", `{"id":1,"x":0,"y":-Infinity}`},
		// Task ids outside the client range [0, 2^30).
		{"/v1/tasks", `{"id":-5,"x":1,"valid":10}`},
		{"/v1/tasks", `{"id":1073741824,"x":1,"valid":10}`},
	}
	for _, tc := range bad {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// A refused request moves no counter, and the refused id-0 submit drew
	// no server id: the first accepted one gets the first.
	if m := d.Snapshot(); m.Ingested != 0 || m.Unroutable != 0 {
		t.Fatalf("after 400s: ingested/unroutable = %d/%d, want 0/0", m.Ingested, m.Unroutable)
	}
	if id := int(postJSON(t, srv, "/v1/tasks", `{"x":1,"valid":10}`)["id"].(float64)); id != syntheticIDBase+1 {
		t.Fatalf("first server-assigned id %d, want %d", id, syntheticIDBase+1)
	}
}

func TestHTTPOfflineAndCancel(t *testing.T) {
	d := singleShard(searchFactory())
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	postJSON(t, srv, "/v1/workers", `{"id":7,"x":2,"y":2,"reach":1,"avail":1000}`)
	taskResp := postJSON(t, srv, "/v1/tasks", `{"id":70,"x":0,"y":0,"valid":500}`)
	if int(taskResp["id"].(float64)) != 70 {
		t.Fatal("client-chosen task id not honored")
	}
	d.Advance(2)
	postJSON(t, srv, "/v1/tasks/cancel", `{"id":70}`)
	postJSON(t, srv, "/v1/workers/heartbeat", `{"id":7,"x":0.1,"y":0}`)
	postJSON(t, srv, "/v1/workers/offline", `{"id":7}`)
	d.Advance(10)

	var m Metrics
	getJSON(t, srv, "/v1/metrics", &m)
	if m.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", m.Cancelled)
	}
	if _, ok := d.PlanOf(7); ok {
		t.Fatal("worker 7 still active after offline")
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ExampleNewHandler demonstrates the wire format of the metrics endpoint.
func ExampleNewHandler() {
	d := New(Config{Step: 1, NewLadder: oneTier(greedyFactory())})
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	resp, _ := http.Get(srv.URL + "/healthz")
	fmt.Println(resp.Status)
	resp.Body.Close()
	// Output: 200 OK
}

// TestHTTPMetricsCounterRoundTrip pins the metrics endpoint's wire names for
// the handoff counters: a run that exercises ghost replication and commit
// arbitration must surface every counter under its documented JSON key with
// the snapshot's exact value.
func TestHTTPMetricsCounterRoundTrip(t *testing.T) {
	d := New(handoffConfig8x8())
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	// The arbitration geometry of TestRetractionScriptOutcome: a contended
	// boundary task plus one nobody can reach.
	d.SubmitTask(&core.Task{ID: 20, Loc: geo.Point{X: 3.5, Y: 0.5}, Pub: 0, Exp: 3000, Cell: -1})
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 0.8, On: 0, Off: 4000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.2}, Reach: 0.8, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(30)

	snap := d.Snapshot()
	if snap.GhostCopies == 0 || snap.CommitConflicts == 0 || snap.Retractions == 0 {
		t.Fatalf("scenario under-exercises the counters: %+v", snap)
	}

	var wire map[string]any
	getJSON(t, srv, "/v1/metrics", &wire)
	for key, want := range map[string]int64{
		"ghost_copies":     snap.GhostCopies,
		"ghost_hits":       snap.GhostHits,
		"routed_ghosts":    int64(snap.RoutedGhosts),
		"commit_conflicts": snap.CommitConflicts,
		"retractions":      snap.Retractions,
	} {
		raw, ok := wire[key]
		if !ok {
			t.Errorf("metrics JSON lacks %q", key)
			continue
		}
		if got := int64(raw.(float64)); got != want {
			t.Errorf("metrics %q = %d, want %d", key, got, want)
		}
	}
	// The two fields Metrics keeps for benchmark/ alone stay off the wire.
	for _, key := range []string{"incremental_hits", "components_replanned"} {
		if _, ok := wire[key]; ok {
			t.Errorf("metrics JSON still carries %q", key)
		}
	}
}

// TestHTTPPrometheusExposition pins the /metrics scrape surface: the text
// exposition content type, counter/gauge typing, and the overload series —
// shed totals and per-shard tiers — an operator watches during a chaos drill.
func TestHTTPPrometheusExposition(t *testing.T) {
	d := New(Config{
		Step: 1, NewLadder: oneTier(searchFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1, DeferSlack: 10000},
	})
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 1, On: 0, Off: 1000})
	// Pool cap 1: the second task's earlier deadline displaces the first out
	// of shard 0, which sheds it under the huge slack bar — so the shed shows
	// up in both the global and the per-shard series.
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(5)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q is not the Prometheus text exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE datawa_assigned_total counter",
		"datawa_assigned_total 1",
		"datawa_shed_total 1",
		"datawa_deferred_total 0",
		"# TYPE datawa_shard_tier gauge",
		`datawa_shard_tier{shard="0"} 0`,
		`datawa_shard_shed_total{shard="0"} 1`,
		"# HELP datawa_shard_shed_total Tasks terminally shed from this shard's open pool by admission control.",
		"# TYPE datawa_epoch_wall_seconds histogram",
		`datawa_epoch_wall_seconds_bucket{le="+Inf"} 5`,
		"datawa_epoch_wall_seconds_count 5",
		"# TYPE datawa_stage_wall_seconds histogram",
		`datawa_stage_wall_seconds_bucket{stage="step",le="+Inf"} 5`,
		`datawa_stage_wall_seconds_count{stage="arbitration"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
