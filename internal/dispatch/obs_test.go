package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// promFamily is one metric family seen in a /metrics scrape.
type promFamily struct {
	typ    string
	helps  int
	types  int
	values map[string]float64 // label-set (raw, le stripped for buckets) → last value
}

// parseExposition is a strict-enough parser of the text exposition format
// for the lint test: it records HELP/TYPE per family and every sample line,
// and fails the test on any line it cannot classify.
func parseExposition(t *testing.T, text string) (map[string]*promFamily, []string) {
	t.Helper()
	fams := map[string]*promFamily{}
	fam := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{values: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			fam(name).helps++
			order = append(order, name)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			fam(name).types++
			fam(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unclassifiable comment line %q", line)
		}
		head, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample line %q: value %q is not a float", line, val)
		}
		name, labels := head, ""
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				t.Fatalf("sample line %q: unterminated label set", line)
			}
			name, labels = head[:i], head[i+1:len(head)-1]
		}
		f, ok := fams[name]
		if !ok {
			// Histogram children belong to the base family.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suf); cut && fams[base] != nil && fams[base].typ == "histogram" {
					f, ok = fams[base], true
					name = base
					break
				}
			}
		}
		if !ok {
			t.Fatalf("sample %q has no preceding HELP/TYPE family", line)
		}
		f.values[head[len(name):]+" "] = v // key unused beyond existence for non-histogram checks
		_ = labels
	}
	return fams, order
}

// TestPrometheusExpositionLint is the satellite lint gate over the full
// /metrics scrape: every counter family ends in _total and no gauge or
// histogram does, every family name is lowercase snake_case, every family
// carries exactly one HELP and one TYPE, every sample has a family, and
// histogram children agree with each other and with the epoch counter.
func TestPrometheusExpositionLint(t *testing.T) {
	d := New(Config{
		Step: 1, NewLadder: oneTier(searchFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1, DeferSlack: 10000},
		Obs:       ObsConfig{Spans: 8, LedgerTasks: 64},
	})
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 1, On: 0, Off: 1000})
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(5)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	fams, _ := parseExposition(t, text)

	validName := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	var epochsTotal float64
	for name, f := range fams {
		if !validName.MatchString(name) {
			t.Errorf("family %s is not a lowercase [a-z_][a-z0-9_]* name", name)
		}
		if f.helps != 1 || f.types != 1 {
			t.Errorf("family %s: %d HELP / %d TYPE lines, want exactly 1 of each", name, f.helps, f.types)
		}
		switch f.typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
		case "gauge", "histogram":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("%s %s ends in _total", f.typ, name)
			}
		default:
			t.Errorf("family %s has unexpected type %q", name, f.typ)
		}
		if len(f.values) == 0 {
			t.Errorf("family %s has HELP/TYPE but no samples", name)
		}
		if name == "datawa_epochs_total" {
			for _, v := range f.values {
				epochsTotal = v
			}
		}
	}
	if epochsTotal != 5 {
		t.Fatalf("datawa_epochs_total = %g, want 5", epochsTotal)
	}

	// Histogram self-consistency, re-parsed line by line so bucket order
	// (cumulative, ending at le="+Inf") is checked as emitted.
	type histKey struct{ fam, labels string }
	lastBucket := map[histKey]float64{}
	lastLe := map[histKey]string{}
	counts := map[histKey]float64{}
	sums := map[histKey]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, val, _ := strings.Cut(line, " ")
		v, _ := strconv.ParseFloat(val, 64)
		name, labels := head, ""
		if i := strings.IndexByte(head, '{'); i >= 0 {
			name, labels = head[:i], head[i+1:len(head)-1]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			if fams[base] == nil || fams[base].typ != "histogram" {
				t.Errorf("%s_bucket sample without a histogram family", base)
				continue
			}
			le := ""
			var rest []string
			for _, l := range strings.Split(labels, ",") {
				if cut, ok := strings.CutPrefix(l, "le="); ok {
					le = strings.Trim(cut, `"`)
				} else if l != "" {
					rest = append(rest, l)
				}
			}
			if le == "" {
				t.Errorf("bucket sample %q lacks an le label", line)
				continue
			}
			k := histKey{base, strings.Join(rest, ",")}
			if v < lastBucket[k] {
				t.Errorf("%s{%s}: bucket le=%q value %g below previous %g (not cumulative)", base, k.labels, le, v, lastBucket[k])
			}
			lastBucket[k], lastLe[k] = v, le
		case strings.HasSuffix(name, "_count") && fams[strings.TrimSuffix(name, "_count")] != nil:
			counts[histKey{strings.TrimSuffix(name, "_count"), labels}] = v
		case strings.HasSuffix(name, "_sum") && fams[strings.TrimSuffix(name, "_sum")] != nil:
			sums[histKey{strings.TrimSuffix(name, "_sum"), labels}] = v
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series found")
	}
	for k, c := range counts {
		if lastLe[k] != "+Inf" {
			t.Errorf("%s{%s}: last bucket le=%q, want +Inf", k.fam, k.labels, lastLe[k])
		}
		if lastBucket[k] != c {
			t.Errorf("%s{%s}: le=+Inf bucket %g != _count %g", k.fam, k.labels, lastBucket[k], c)
		}
		if s, ok := sums[k]; !ok || s < 0 {
			t.Errorf("%s{%s}: _sum missing or negative (%g)", k.fam, k.labels, s)
		}
		// Every stage observes once per epoch, and the epoch histogram once
		// per tick, so each _count is locked to the epoch counter.
		if c != epochsTotal {
			t.Errorf("%s{%s}: _count %g != datawa_epochs_total %g", k.fam, k.labels, c, epochsTotal)
		}
	}
	for i, stage := range []string{"drain", "admission", "reghost", "forecast", "step", "arbitration"} {
		k := histKey{"datawa_stage_wall_seconds", fmt.Sprintf("stage=%q", stage)}
		if _, ok := counts[k]; !ok {
			t.Errorf("stage %d (%s) has no _count series", i, stage)
		}
	}
}

// chainStates flattens a ledger chain to its state sequence.
func chainStates(h obs.TaskHistory) []obs.State {
	out := make([]obs.State, len(h.Transitions))
	for i, tr := range h.Transitions {
		out[i] = tr.State
	}
	return out
}

func wantChain(t *testing.T, d *Dispatcher, id int, want ...obs.State) obs.TaskHistory {
	t.Helper()
	h, ok := d.TaskHistory(id)
	if !ok {
		t.Fatalf("task %d: no ledger chain", id)
	}
	got := chainStates(h)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("task %d chain = %v, want %v", id, got, want)
	}
	return h
}

// TestObsLedgerAdmissionChains pins the ledger view of the admission
// scenario the Prometheus test uses: the displaced task's chain names its
// displacer and ends shed, the survivor's ends assigned — and the HTTP
// history endpoint serves both, with 404/400 on unknown/garbage ids.
func TestObsLedgerAdmissionChains(t *testing.T) {
	d := New(Config{
		Step: 1, NewLadder: oneTier(searchFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1, DeferSlack: 10000},
		Obs:       ObsConfig{LedgerTasks: 64},
	})
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 1, On: 0, Off: 1000})
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(5)

	h1 := wantChain(t, d, 1, obs.Submitted, obs.Admitted, obs.Displaced, obs.Shed)
	if c := h1.Transitions[2].Cause; c != "displaced by task 2" {
		t.Fatalf("task 1 displacement cause %q", c)
	}
	if term, ok := h1.Terminal(); !ok || term.State != obs.Shed || !strings.Contains(term.Cause, "not enough validity to defer") {
		t.Fatalf("task 1 terminal = %+v, %v", term, ok)
	}
	h2 := wantChain(t, d, 2, obs.Submitted, obs.Admitted, obs.Assigned)
	if term, _ := h2.Terminal(); term.Worker != 1 || term.Shard != 0 {
		t.Fatalf("task 2 assigned by worker %d in shard %d, want worker 1 shard 0", term.Worker, term.Shard)
	}

	issues, evictions := d.LedgerAudit()
	if len(issues) != 0 || evictions != 0 {
		t.Fatalf("ledger audit: issues=%v evictions=%d, want clean", issues, evictions)
	}

	var got obs.TaskHistory
	getJSON(t, srv, "/v1/tasks/1/history", &got)
	if got.Task != 1 || len(got.Transitions) != 4 {
		t.Fatalf("GET /v1/tasks/1/history = %+v", got)
	}
	for path, want := range map[string]int{
		"/v1/tasks/999/history": http.StatusNotFound,
		"/v1/tasks/abc/history": http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestObsLedgerExpireCancelChains covers the remaining terminal states: a
// machine-internal expiry, a requester withdrawal, and an expired-on-arrival
// submit — plus the conservation cross-check against the snapshot counters.
func TestObsLedgerExpireCancelChains(t *testing.T) {
	d := New(Config{
		Step: 1, NewLadder: oneTier(searchFactory()),
		Obs: ObsConfig{LedgerTasks: 64},
	})
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 0.5, On: 0, Off: 1000})
	// Unreachable, so it sits open until its deadline passes inside Step.
	d.SubmitTask(&core.Task{ID: 3, Loc: geo.Point{X: 3}, Pub: 0, Exp: 100, Cell: -1})
	// Withdrawn one tick after admission.
	d.SubmitTask(&core.Task{ID: 4, Loc: geo.Point{X: 2}, Pub: 0, Exp: 800, Cell: -1})
	d.CancelTask(4)
	// Dead before the first planning instant.
	d.SubmitTask(&core.Task{ID: 5, Loc: geo.Point{X: 0.1}, Pub: -2, Exp: -1, Cell: -1})
	d.Advance(150)

	e3 := wantChain(t, d, 3, obs.Submitted, obs.Admitted, obs.Expired)
	if term, _ := e3.Terminal(); term.Shard != 0 {
		t.Fatalf("task 3 expired in shard %d, want 0", term.Shard)
	}
	e4 := wantChain(t, d, 4, obs.Submitted, obs.Admitted, obs.Cancelled)
	if term, _ := e4.Terminal(); term.Cause != "withdrawn by requester" {
		t.Fatalf("task 4 cancel cause %q", term.Cause)
	}
	e5 := wantChain(t, d, 5, obs.Submitted, obs.Expired)
	if term, _ := e5.Terminal(); term.Cause != "expired on arrival" {
		t.Fatalf("task 5 expiry cause %q", term.Cause)
	}

	if issues, _ := d.LedgerAudit(); len(issues) != 0 {
		t.Fatalf("ledger audit after drain: %v", issues)
	}
	// Conservation: the ledger's terminal tally must equal the counters.
	m := d.Snapshot()
	if m.Expired != 2 || m.Cancelled != 1 || m.Assigned != 0 || m.Shed != 0 {
		t.Fatalf("snapshot assigned/expired/cancelled/shed = %d/%d/%d/%d, want 0/2/1/0",
			m.Assigned, m.Expired, m.Cancelled, m.Shed)
	}
}

// obsFingerprint marshals a dispatcher's logical observability content —
// spans with wall fields zeroed, plus every retained ledger chain — for
// byte-comparison across runs.
func obsFingerprint(t *testing.T, d *Dispatcher) string {
	t.Helper()
	spans := d.SpanTrace(0)
	logical := make([]obs.EpochSpans, len(spans))
	for i, es := range spans {
		cp := obs.EpochSpans{Epoch: es.Epoch, Now: es.Now, Spans: append([]obs.Span(nil), es.Spans...)}
		for j := range cp.Spans {
			cp.Spans[j].StartNS, cp.Spans[j].DurNS = 0, 0
			if cp.Spans[j].Track == 0 && cp.Spans[j].Name == "step" {
				cp.Spans[j].Detail = "" // the fan-out follows the shards' walls
			}
		}
		logical[i] = cp
	}
	d.mu.Lock()
	chains := d.ob.ledger.Recent(0)
	d.mu.Unlock()
	raw, err := json.MarshalIndent(struct {
		Spans  []obs.EpochSpans  `json:"spans"`
		Chains []obs.TaskHistory `json:"chains"`
	}{logical, chains}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// conflictScript drives a handoffConfig8x8 dispatcher through a boundary
// conflict — both workers commit task 10 through the halo and arbitration
// retracts the farther one, whose resumed plan takes task 11 — plus a task
// nobody reaches before it expires.
func conflictScript(d *Dispatcher) {
	d.SubmitTask(&core.Task{ID: 20, Loc: geo.Point{X: 3.5, Y: 0.5}, Pub: 0, Exp: 300, Cell: -1})
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 0.8, On: 0, Off: 4000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.2}, Reach: 0.8, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.SubmitTask(&core.Task{ID: 11, Loc: geo.Point{X: 1, Y: 1.3}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(700)
}

// TestObsLogicalDeterminism is the determinism contract extended to the
// observability plane: over a geometry that exercises ghost replication,
// commit conflicts, arbitration retraction, and expiry, the logical span
// content and every ledger chain must be byte-identical at parallelism 1, 4,
// and 0 (auto) and across reruns. Wall-clock fields are zeroed — the span
// times and the step stage's fan-out, which follows the shards' walls — as
// the only sanctioned divergence.
func TestObsLogicalDeterminism(t *testing.T) {
	run := func(parallelism int) string {
		cfg := handoffConfig8x8()
		cfg.Parallelism = parallelism
		cfg.Obs = ObsConfig{Spans: 1024, LedgerTasks: 1024}
		d := New(cfg)
		conflictScript(d)
		m := d.Snapshot()
		if m.GhostCopies == 0 || m.Retractions == 0 {
			t.Fatalf("parallelism %d: scenario lost its conflict (ghosts=%d retractions=%d)", parallelism, m.GhostCopies, m.Retractions)
		}
		return obsFingerprint(t, d)
	}
	base := run(1)
	for _, p := range []int{1, 4, 0} {
		if got := run(p); got != base {
			t.Fatalf("parallelism %d: logical observability content diverged from the parallelism-1 run:\n%s\n----\n%s", p, got, base)
		}
	}
	// The retracted loser's chain must show the arbitration round.
	cfg := handoffConfig8x8()
	cfg.Obs = ObsConfig{LedgerTasks: 64}
	d := New(cfg)
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 0.8, On: 0, Off: 4000})
	d.WorkerOnline(&core.Worker{ID: 2, Loc: geo.Point{X: 1, Y: 2.2}, Reach: 0.8, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(700)
	h, ok := d.TaskHistory(10)
	if !ok {
		t.Fatal("task 10: no ledger chain")
	}
	states := chainStates(h)
	// Both workers commit task 10 through the halo; the loser's retraction
	// is ledgered before the winner's assignment, so the chain stays
	// well-formed (one terminal, nothing after it).
	if fmt.Sprint(states) != fmt.Sprint([]obs.State{obs.Submitted, obs.Admitted, obs.GhostReplicated, obs.Retracted, obs.Assigned}) {
		t.Fatalf("boundary task chain = %v", states)
	}
	if term, _ := h.Terminal(); !strings.Contains(term.Cause, "won arbitration") {
		t.Fatalf("conflicted assignment cause %q does not mention arbitration", term.Cause)
	}
}

// outcomeOf is a snapshot with its wall-clock fields zeroed: every outcome,
// routing and arbitration counter, per shard too.
func outcomeOf(m Metrics) string {
	m.PlanTime, m.EpochP50, m.EpochP95, m.EpochP99 = 0, 0, 0, 0
	m.Shards = append([]ShardMetrics(nil), m.Shards...)
	for i := range m.Shards {
		m.Shards[i].Stats.PlanTime = 0
	}
	return fmt.Sprintf("%+v", m)
}

// TestObsSettingsChangeNoOutcomeAcrossParallelism: observability only
// watches. With spans, ledger and flight recorder on, a dispatcher decides
// exactly what it decides with ObsConfig{} — every outcome and routing field
// of the snapshot equal, at parallelism 1 and 0 — on the boundary conflict
// script (commits, a retraction, an expiry) and on a two-shard trace with
// cancels and offlines. The ledger the "on" runs keep must audit clean.
func TestObsSettingsChangeNoOutcomeAcrossParallelism(t *testing.T) {
	sc := testScenario(t)
	cases := []struct {
		name string
		cfg  func() Config
		run  func(*Dispatcher)
		// exercised reports what the case must have produced to be a test.
		exercised func(Metrics) bool
	}{
		{"conflict-script", handoffConfig8x8, conflictScript,
			func(m Metrics) bool { return m.Retractions > 0 && m.Expired > 0 }},
		{"trace-cancels-offlines", func() Config {
			return Config{Shards: 2, Grid: sc.Grid, Step: 2, Now: sc.T0, NewLadder: oneTier(searchFactory())}
		}, churnScript(sc), func(m Metrics) bool {
			return m.Cancelled > 0 && m.GhostCopies > 0 && m.Assigned > 0 && m.Expired > 0 && m.RoutedTasks == 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, parallelism := range []int{1, 0} {
				for _, oc := range []ObsConfig{{}, {Spans: 64, LedgerTasks: 1 << 14, FlightDepth: 8}} {
					cfg := tc.cfg()
					cfg.Parallelism, cfg.Obs = parallelism, oc
					d := New(cfg)
					tc.run(d)
					m := d.Snapshot()
					if !tc.exercised(m) {
						t.Fatalf("parallelism %d obs %+v: the case does not exercise its path: %s", parallelism, oc, digest(m))
					}
					if oc.LedgerTasks > 0 {
						if issues, evicted := d.LedgerAudit(); len(issues) > 0 || evicted > 0 {
							t.Fatalf("parallelism %d: ledger audit %v, %d evictions", parallelism, issues, evicted)
						}
					}
					got := outcomeOf(m)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("parallelism %d obs %+v changed the outcome:\n got %s\nwant %s", parallelism, oc, got, want)
					}
				}
			}
		})
	}
}

// TestChromeTraceEndpoint validates /v1/trace.json against the Chrome
// trace-event schema: displayTimeUnit, one thread_name metadata event per
// track, and complete ("X") events carrying ts/dur/pid/tid plus the logical
// epoch in args.
func TestChromeTraceEndpoint(t *testing.T) {
	cfg := handoffConfig()
	cfg.Obs = ObsConfig{Spans: 16}
	d := New(cfg)
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 1, Y: 1.9}, Reach: 1, On: 0, Off: 4000})
	d.SubmitTask(&core.Task{ID: 10, Loc: geo.Point{X: 1, Y: 2.1}, Pub: 0, Exp: 600, Cell: -1})
	d.Advance(5)

	resp, err := http.Get(srv.URL + "/v1/trace.json?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET /v1/trace.json: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var trace struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", trace.DisplayTimeUnit)
	}
	meta := map[string]bool{}
	complete := 0
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] != "thread_name" {
				t.Fatalf("metadata event %v is not thread_name", ev)
			}
			meta[ev["args"].(map[string]any)["name"].(string)] = true
		case "X":
			complete++
			for _, key := range []string{"name", "ts", "dur", "pid", "tid", "args"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("complete event %v lacks %q", ev, key)
				}
			}
			if _, ok := ev["args"].(map[string]any)["epoch"]; !ok {
				t.Fatalf("complete event %v lacks args.epoch", ev)
			}
		default:
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
	}
	for _, track := range []string{"dispatcher", "shard 0", "shard 1"} {
		if !meta[track] {
			t.Fatalf("no thread_name metadata for track %q (have %v)", track, meta)
		}
	}
	if complete == 0 {
		t.Fatal("trace has no complete events")
	}

	for _, q := range []string{"bogus", "-1"} {
		resp, err = http.Get(srv.URL + "/v1/trace.json?n=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/trace.json?n=%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFlightRecorder arms the recorder over the shedding admission scenario:
// the shed must freeze a dump (reason, recent spans, the shed task's chain),
// write it to FlightDir, respect the cooldown window, and serve over
// GET /v1/flight.
func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	d := New(Config{
		Step: 1, NewLadder: oneTier(searchFactory()),
		Admission: AdmissionConfig{MaxOpenTasks: 1, DeferSlack: 10000},
		Obs:       ObsConfig{FlightDepth: 4, FlightDir: dir},
	})
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	d.WorkerOnline(&core.Worker{ID: 1, Loc: geo.Point{X: 0}, Reach: 1, On: 0, Off: 1000})
	d.SubmitTask(&core.Task{ID: 1, Loc: geo.Point{X: 0.1}, Pub: 0, Exp: 900, Cell: -1})
	d.SubmitTask(&core.Task{ID: 2, Loc: geo.Point{X: 0.2}, Pub: 0, Exp: 500, Cell: -1})
	d.Advance(2)
	// A second shed inside the cooldown window must NOT capture a second
	// dump: task 6's earlier deadline displaces task 2, which sheds.
	d.SubmitTask(&core.Task{ID: 6, Loc: geo.Point{X: 0.3}, Pub: 2, Exp: 400, Cell: -1})
	d.Advance(4)

	dumps := d.FlightDumps()
	if len(dumps) != 1 {
		t.Fatalf("%d flight dumps, want exactly 1 (cooldown must suppress the second shed)", len(dumps))
	}
	dump := dumps[0]
	if dump.Reason != "shed" {
		t.Fatalf("dump reason %q, want shed", dump.Reason)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("dump froze no spans (FlightDepth should default spans on)")
	}
	found := false
	for _, h := range dump.Tasks {
		if h.Task == 1 {
			if term, ok := h.Terminal(); !ok || term.State != obs.Shed {
				t.Fatalf("dumped chain for task 1 has terminal %+v, want shed", term)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("dump ledger slice lacks the shed task; got %d chains", len(dump.Tasks))
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*-shed.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("flight dir has %d shed dumps (%v), want 1", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var onDisk obs.FlightDump
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatalf("on-disk dump is not valid JSON: %v", err)
	}
	if onDisk.Reason != dump.Reason || onDisk.Epoch != dump.Epoch {
		t.Fatalf("on-disk dump %+v does not match the retained one %+v", onDisk, dump)
	}

	var served []obs.FlightDump
	getJSON(t, srv, "/v1/flight", &served)
	if len(served) != 1 || served[0].Reason != "shed" {
		t.Fatalf("GET /v1/flight = %+v", served)
	}

	// Sanity: the dumped chains are sorted by id (stable artifact layout).
	ids := make([]int, len(dump.Tasks))
	for i, h := range dump.Tasks {
		ids[i] = h.Task
	}
	if !sort.IntsAreSorted(ids) {
		t.Fatalf("dump chains not sorted by task id: %v", ids)
	}
}
