package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
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

// streamBatches is the scenario trace as POST /v1/stream carries it: the
// churnScript stream (every fifth task cancelled 30 s after its submit, every
// fourth worker offline after 300 s) plus one task submit under a
// server-assigned id, which IngestBatch rejects, cut into 64-event batches.
func streamBatches(sc *workload.Scenario) [][]wire.Event {
	var events []wire.Event
	for _, ev := range sc.Events() {
		events = append(events, wireEvent(ev))
		switch {
		case ev.Kind == workload.TaskSubmit && ev.Task.ID%5 == 0:
			events = append(events, wire.Event{Time: ev.Time + 30, Kind: wire.TaskCancel, ID: int64(ev.Task.ID)})
		case ev.Kind == workload.WorkerOnline && ev.Worker.ID%4 == 0:
			events = append(events, wire.Event{Time: ev.Time + 300, Kind: wire.WorkerOffline, ID: int64(ev.Worker.ID)})
		}
	}
	events = append(events, wire.Event{Time: sc.T0, Kind: wire.TaskSubmit, ID: syntheticIDBase, X: 1, Y: 1, Pub: sc.T0, Exp: sc.T0 + 60})
	var batches [][]wire.Event
	for len(events) > 0 {
		n := min(64, len(events))
		batches = append(batches, events[:n])
		events = events[n:]
	}
	return batches
}

// encodeFrames writes each batch as one wire frame.
func encodeFrames(t *testing.T, batches [][]wire.Event) [][]byte {
	t.Helper()
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		var buf bytes.Buffer
		if err := wire.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// postStream POSTs body to /v1/stream through the handler and returns the
// status with the session summary, which an error response nests under
// "summary".
func postStream(t *testing.T, h http.Handler, body io.Reader) (int, StreamSummary) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", body))
	var out struct {
		StreamSummary
		Error   string         `json:"error"`
		Summary *StreamSummary `json:"summary"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatalf("POST /v1/stream: decode: %v", err)
	}
	refused := rec.Code != http.StatusAccepted
	if refused != (out.Error != "") || refused != (out.Summary != nil) {
		t.Fatalf("POST /v1/stream: status %d with error %q", rec.Code, out.Error)
	}
	if refused {
		return rec.Code, *out.Summary
	}
	return rec.Code, out.StreamSummary
}

// failingReader hands over its bytes, then fails with a transport error.
type failingReader struct{ r io.Reader }

func (f failingReader) Read(p []byte) (int, error) {
	if n, _ := f.r.Read(p); n > 0 {
		return n, nil
	}
	return 0, errors.New("connection reset")
}

// TestHTTPStream holds POST /v1/stream, the one batched way in, to the frames
// it carries. A body of several wire frames is summarized with 202 and leaves
// the snapshot and every ledger chain equal to the same batches handed to
// IngestBatch in process. A body cut mid-frame gets 400 and the counts of the
// frames before the cut; a JSON body gets 400 and moves no counter; an empty
// body gets 202 with zero counts; a body that fails to read gets 500. The
// last case streams a session while another goroutine runs epochs: sessions
// decode on HTTP goroutines while the epoch loop runs, so CI runs this test
// under the race detector, and every task must still be accounted for once
// the dispatcher quiesces.
func TestHTTPStream(t *testing.T) {
	sc := testScenario(t)
	batches := streamBatches(sc)
	frames := encodeFrames(t, batches)
	// The clock starts past the trace's first instant, so that a summary's
	// time is not the zero value; the events before it apply at once.
	start := sc.T0 + 10
	newDispatcher := func() *Dispatcher {
		return New(Config{
			Shards: 2, Grid: sc.Grid, Step: 2, Now: start,
			NewLadder: oneTier(searchFactory()), Obs: ObsConfig{LedgerTasks: 1 << 14},
		})
	}
	settle := func(d *Dispatcher) (outcome, ledger string) {
		d.Advance(sc.T1)
		if !d.Quiesce(10000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		d.mu.Lock()
		chains := d.ob.ledger.Recent(0)
		d.mu.Unlock()
		raw, err := json.Marshal(chains)
		if err != nil {
			t.Fatal(err)
		}
		return outcomeOf(d.Snapshot()), string(raw)
	}
	// sum is what a session carrying the first n frames reports.
	sum := func(n int) StreamSummary {
		s := StreamSummary{Frames: int64(n), Time: start}
		for _, b := range batches[:n] {
			s.Accepted += int64(len(b))
		}
		if n == len(batches) {
			s.Accepted, s.Rejected = s.Accepted-1, 1
		}
		return s
	}

	t.Run("frames", func(t *testing.T) {
		d := newDispatcher()
		code, got := postStream(t, NewHandler(d), bytes.NewReader(bytes.Join(frames, nil)))
		if code != http.StatusAccepted || got != sum(len(frames)) {
			t.Fatalf("status %d, summary %+v; want 202, %+v", code, got, sum(len(frames)))
		}
		outcome, ledger := settle(d)

		ref := newDispatcher()
		for _, b := range batches {
			ref.IngestBatch(b)
		}
		wantOutcome, wantLedger := settle(ref)
		if m := ref.Snapshot(); m.Assigned == 0 || m.Cancelled == 0 || m.Expired == 0 || m.GhostCopies == 0 {
			t.Fatalf("the stream does not exercise its path: %s", digest(m))
		}
		if outcome != wantOutcome {
			t.Fatalf("streamed snapshot diverged from IngestBatch:\n got %s\nwant %s", outcome, wantOutcome)
		}
		if ledger != wantLedger {
			t.Fatal("streamed ledger diverged from IngestBatch")
		}
	})

	t.Run("cut mid-frame", func(t *testing.T) {
		d := newDispatcher()
		body := append(bytes.Join(frames[:2], nil), frames[2][:len(frames[2])-3]...)
		code, got := postStream(t, NewHandler(d), bytes.NewReader(body))
		if code != http.StatusBadRequest || got != sum(2) {
			t.Fatalf("status %d, summary %+v; want 400, %+v", code, got, sum(2))
		}
		if m := d.Snapshot(); m.Ingested != sum(2).Accepted {
			t.Fatalf("ingested %d, want the %d events of the frames before the cut", m.Ingested, sum(2).Accepted)
		}
	})

	t.Run("JSON body", func(t *testing.T) {
		d := newDispatcher()
		before := outcomeOf(d.Snapshot())
		body := `{"kind":"task_submit","time":0,"id":12,"x":1,"y":2,"pub":0,"exp":60}` + "\n"
		code, got := postStream(t, NewHandler(d), strings.NewReader(body))
		if code != http.StatusBadRequest || got != sum(0) {
			t.Fatalf("status %d, summary %+v; want 400, %+v", code, got, sum(0))
		}
		if after := outcomeOf(d.Snapshot()); after != before {
			t.Fatalf("a refused body moved the snapshot:\n got %s\nwant %s", after, before)
		}
	})

	t.Run("empty body", func(t *testing.T) {
		code, got := postStream(t, NewHandler(newDispatcher()), http.NoBody)
		if code != http.StatusAccepted || got != sum(0) {
			t.Fatalf("status %d, summary %+v; want 202, %+v", code, got, sum(0))
		}
	})

	t.Run("read failure", func(t *testing.T) {
		code, got := postStream(t, NewHandler(newDispatcher()), failingReader{bytes.NewReader(frames[0])})
		if code != http.StatusInternalServerError || got != sum(1) {
			t.Fatalf("status %d, summary %+v; want 500, %+v", code, got, sum(1))
		}
	})

	t.Run("session during ticks", func(t *testing.T) {
		d := newDispatcher()
		srv := httptest.NewServer(NewHandler(d))
		defer srv.Close()
		pr, pw := io.Pipe()
		var wg sync.WaitGroup
		var resp *http.Response
		var postErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, postErr = http.Post(srv.URL+"/v1/stream", "application/octet-stream", pr)
		}()
		// Each write returns once the session has taken the frame, and the
		// session stays open until the pipe closes, so every Tick below runs
		// while it is in flight.
		for _, f := range frames {
			if _, err := pw.Write(f); err != nil {
				t.Fatal(err)
			}
			d.Tick()
		}
		pw.Close()
		wg.Wait()
		if postErr != nil {
			t.Fatal(postErr)
		}
		var got StreamSummary
		err := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, decode %v", resp.StatusCode, err)
		}
		if want := sum(len(frames)); got.Accepted != want.Accepted || got.Rejected != want.Rejected || got.Frames != want.Frames {
			t.Fatalf("summary %+v, want %+v", got, want)
		}
		if !d.Quiesce(10000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		m := d.Snapshot()
		if m.Assigned == 0 || m.Assigned+m.Expired+m.Cancelled+int(m.Shed) != len(sc.Tasks) {
			t.Fatalf("%d assigned + %d expired + %d cancelled + %d shed != %d tasks",
				m.Assigned, m.Expired, m.Cancelled, m.Shed, len(sc.Tasks))
		}
	})
}
