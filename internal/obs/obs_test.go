package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestSpanRingWraparound is the wrap-around property: after M > depth adds,
// Last(n) returns exactly the newest min(n, depth) records, oldest first.
func TestSpanRingWraparound(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 7, 16} {
		for _, adds := range []int{0, 1, depth - 1, depth, depth + 1, 2*depth + 3} {
			if adds < 0 {
				continue
			}
			r := NewRing[EpochSpans](depth)
			for i := 0; i < adds; i++ {
				r.Add(EpochSpans{Epoch: i})
			}
			for _, n := range []int{0, 1, depth - 1, depth, depth + 5} {
				if n < 0 {
					continue
				}
				got := r.Last(n)
				retained := adds
				if retained > depth {
					retained = depth
				}
				want := retained
				if n > 0 && n < want {
					want = n
				}
				if len(got) != want {
					t.Fatalf("depth=%d adds=%d Last(%d): got %d records, want %d", depth, adds, n, len(got), want)
				}
				for j, e := range got {
					if wantEpoch := adds - len(got) + j; e.Epoch != wantEpoch {
						t.Fatalf("depth=%d adds=%d Last(%d)[%d]: epoch %d, want %d", depth, adds, n, j, e.Epoch, wantEpoch)
					}
				}
			}
		}
	}
}

func TestLedgerChainAndHistory(t *testing.T) {
	l := NewLedger(16)
	l.Record(7, Transition{State: Submitted, Epoch: 0, Now: 0})
	l.Record(7, Transition{State: Admitted, Epoch: 0, Now: 0, Shard: 1})
	l.Record(7, Transition{State: GhostReplicated, Epoch: 0, Now: 0, Shard: 2})
	l.Record(7, Transition{State: Assigned, Epoch: 3, Now: 3, Shard: 2, Worker: 9, Cause: "ghost hit"})

	h, ok := l.History(7)
	if !ok || len(h.Transitions) != 4 {
		t.Fatalf("History(7) = %+v, %v; want 4 transitions", h, ok)
	}
	term, ok := h.Terminal()
	if !ok || term.State != Assigned || term.Worker != 9 {
		t.Fatalf("Terminal() = %+v, %v; want assigned by worker 9", term, ok)
	}
	if _, ok := l.History(8); ok {
		t.Fatal("History(8) should be unknown")
	}
	if issues := l.Audit(); len(issues) != 0 {
		t.Fatalf("Audit() on a well-formed chain = %v", issues)
	}
	if got := l.TerminalCounts()[Assigned]; got != 1 {
		t.Fatalf("TerminalCounts()[assigned] = %d, want 1", got)
	}
}

func TestLedgerViolations(t *testing.T) {
	l := NewLedger(16)
	// Chain starting past Submitted.
	l.Record(1, Transition{State: Admitted})
	if l.Violations() != 1 {
		t.Fatalf("Violations() = %d after bad chain start, want 1", l.Violations())
	}
	// Transition after a terminal state.
	l.Record(2, Transition{State: Submitted})
	l.Record(2, Transition{State: Shed, Cause: "displaced"})
	l.Record(2, Transition{State: Admitted})
	if l.Violations() != 2 {
		t.Fatalf("Violations() = %d after post-terminal transition, want 2", l.Violations())
	}
	if s := l.ViolationSamples(); len(s) != 2 || !strings.Contains(s[1], "task 2") {
		t.Fatalf("ViolationSamples() = %q", s)
	}
	// Audit flags the open chain, the bad start, and the post-terminal entry.
	issues := l.Audit()
	if len(issues) != 3 {
		t.Fatalf("Audit() = %v, want 3 issues", issues)
	}
}

func TestLedgerAuditFlagsOpenChains(t *testing.T) {
	l := NewLedger(4)
	l.Record(5, Transition{State: Submitted})
	l.Record(5, Transition{State: Admitted})
	issues := l.Audit()
	if len(issues) != 1 || issues[0].Task != 5 || issues[0].Problem != "no terminal state" {
		t.Fatalf("Audit() = %v, want task 5 flagged as non-terminal", issues)
	}
}

// TestLedgerEvictionPrefersTerminal: at capacity the ledger drops closed
// cases before live ones, and keeps working after far more tasks than cap.
func TestLedgerEvictionPrefersTerminal(t *testing.T) {
	l := NewLedger(3)
	l.Record(1, Transition{State: Submitted})
	l.Record(1, Transition{State: Assigned})
	l.Record(2, Transition{State: Submitted}) // stays live
	l.Record(3, Transition{State: Submitted})
	l.Record(3, Transition{State: Expired})
	// Fourth task: ledger is full, task 1 (oldest terminal) must go.
	l.Record(4, Transition{State: Submitted})
	if _, ok := l.History(1); ok {
		t.Fatal("task 1 should have been evicted (oldest terminal)")
	}
	if _, ok := l.History(2); !ok {
		t.Fatal("live task 2 should have survived eviction")
	}
	if l.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", l.Evictions())
	}
	// Flood well past capacity: size stays bounded, live chains evict last.
	for i := 10; i < 200; i++ {
		l.Record(i, Transition{State: Submitted})
		l.Record(i, Transition{State: Assigned})
	}
	if l.Len() != 3 {
		t.Fatalf("Len() = %d after flood, want cap 3", l.Len())
	}
}

// TestLedgerChainPerIncarnation: an id submitted again after its chain ended
// starts a new chain, and the finished one is retired as an eviction — which
// must not take the id's new, live chain for the old terminal one.
func TestLedgerChainPerIncarnation(t *testing.T) {
	l := NewLedger(2)
	l.Record(24, Transition{State: Submitted, Epoch: 0})
	l.Record(24, Transition{State: Assigned, Epoch: 0, Worker: 4})
	l.Record(24, Transition{State: Submitted, Epoch: 1})
	if l.Violations() != 0 || len(l.Audit()) != 1 || l.Evictions() != 1 || l.Len() != 1 {
		t.Fatalf("violations %d, audit %v, evictions %d, %d chains after a resubmit", l.Violations(), l.Audit(), l.Evictions(), l.Len())
	}
	if h, _ := l.History(24); len(h.Transitions) != 1 || h.Transitions[0].Epoch != 1 {
		t.Fatalf("History(24) = %+v, want the second incarnation's chain alone", h)
	}
	// Task 7 ends, task 9 fills the ledger: the oldest terminal chain is 7's,
	// not the retired first chain of 24, whose id is live again.
	l.Record(7, Transition{State: Submitted, Epoch: 1})
	l.Record(7, Transition{State: Expired, Epoch: 1})
	l.Record(9, Transition{State: Submitted, Epoch: 2})
	if _, ok := l.History(24); !ok {
		t.Fatal("the live chain of task 24 was evicted in place of a terminal one")
	}
	if _, ok := l.History(7); ok {
		t.Fatal("task 7, the oldest terminal chain, should have been evicted")
	}
	l.Record(24, Transition{State: Expired, Epoch: 2})
	if issues := l.Audit(); len(issues) != 1 || issues[0].Task != 9 || l.Violations() != 0 {
		t.Fatalf("Audit() = %v with %d violations, want only task 9 open", issues, l.Violations())
	}
	if got := l.TerminalCounts(); got[Expired] != 1 || got[Assigned] != 0 || l.Evictions() != 2 {
		t.Fatalf("TerminalCounts() = %v, evictions %d", got, l.Evictions())
	}
}

func TestLedgerRecent(t *testing.T) {
	l := NewLedger(16)
	l.Record(1, Transition{State: Submitted, Epoch: 0})
	l.Record(1, Transition{State: Assigned, Epoch: 2})
	l.Record(2, Transition{State: Submitted, Epoch: 5})
	l.Record(3, Transition{State: Submitted, Epoch: 9})
	got := l.Recent(5)
	if len(got) != 2 || got[0].Task != 2 || got[1].Task != 3 {
		t.Fatalf("Recent(5) = %+v, want tasks 2 and 3", got)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewLogHistogram(0.001, 1, 3) // bounds 0.001 .. 1, 3/decade
	h.Observe(0.0005)                 // first bucket
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(50) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if want := 0.0005 + 0.5 + 0.5 + 50; s.Sum != want {
		t.Fatalf("Sum = %g, want %g", s.Sum, want)
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Fatalf("Counts len %d, Bounds len %d", len(s.Counts), len(s.Bounds))
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum %d != Count %d", total, s.Count)
	}

	var b strings.Builder
	s.AppendProm(&b, "x_seconds", `stage="drain"`)
	out := b.String()
	if !strings.Contains(out, `x_seconds_bucket{stage="drain",le="+Inf"} 4`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `x_seconds_count{stage="drain"} 4`) {
		t.Fatalf("missing count series:\n%s", out)
	}
	// Cumulative monotonicity across the rendered buckets.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative counts decreased:\n%s", out)
		}
		last = v
	}

	var b2 strings.Builder
	s.AppendProm(&b2, "y_seconds", "")
	if !strings.Contains(b2.String(), `y_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("unlabelled exposition malformed:\n%s", b2.String())
	}
}

// TestLatencyBoundsPinned pins the 41 `le` labels of the dispatcher's latency
// histograms as /metrics prints them. They are fmath.Pow's bits, the same on
// every CPU: CI runs this package with FMA off as well, where math.Pow would
// print 1.5848931924611137e-06 and 0.00039810717055349735 instead.
func TestLatencyBoundsPinned(t *testing.T) {
	want := strings.Fields(`1e-06 1.5848931924611134e-06 2.5118864315095806e-06
		3.981071705534972e-06 6.309573444801932e-06 9.999999999999999e-06
		1.584893192461113e-05 2.5118864315095798e-05 3.9810717055349735e-05
		6.309573444801932e-05 9.999999999999999e-05 0.00015848931924611142
		0.00025118864315095795 0.0003981071705534973 0.0006309573444801929 0.001
		0.0015848931924611143 0.00251188643150958 0.003981071705534973
		0.006309573444801929 0.01 0.01584893192461114 0.025118864315095822
		0.03981071705534968 0.06309573444801929 0.09999999999999999
		0.15848931924611143 0.25118864315095824 0.39810717055349687
		0.6309573444801929 1 1.584893192461114 2.5118864315095824
		3.9810717055349683 6.309573444801928 10 15.848931924611142
		25.118864315095824 39.810717055349684 63.095734448019286 100 +Inf`)
	var b strings.Builder
	NewLatencyHistogram().Snapshot().AppendProm(&b, "x_seconds", "")
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if le, ok := strings.CutPrefix(line, `x_seconds_bucket{le="`); ok {
			got = append(got, le[:strings.IndexByte(le, '"')])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d bucket labels, want %d:\n%s", len(got), len(want), b.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: le=%q, want %q", i, got[i], want[i])
		}
	}
}

// TestHistogramQuantile pins the histogram_quantile convention: an empty
// histogram reads 0, a rank in the +Inf bucket reads the top finite bound,
// quantiles are monotone in q, and on a seeded sample every estimate lands in
// the bucket that holds the exact order statistic or on its boundary — the
// one-bucket error a log-bucketed estimate is allowed.
func TestHistogramQuantile(t *testing.T) {
	h := NewLatencyHistogram()
	if got := h.Quantile(0.95); got != 0 {
		t.Fatalf("empty histogram p95 = %g, want 0", got)
	}
	h.Observe(1e6) // far past the 100 s top bound
	top := h.bounds[len(h.bounds)-1]
	if got := h.Quantile(0.5); got != top {
		t.Fatalf("overflow-bucket p50 = %g, want the top bound %g", got, top)
	}

	h = NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	sample := make([]float64, 2000)
	for i := range sample {
		// Log-uniform over 10 µs … 1 s: the span epochs actually cover.
		sample[i] = 1e-5 * math.Pow(10, 5*rng.Float64())
		h.Observe(sample[i])
	}
	sort.Float64s(sample)
	bucketOf := func(v float64) int { return sort.SearchFloat64s(h.bounds, v) }
	prev := 0.0
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("q=%g: estimate %g below the previous quantile %g", q, got, prev)
		}
		prev = got
		// The exact order statistic of rank ⌈q·n⌉ (1-based), as Prometheus
		// defines the rank.
		k := int(math.Ceil(q*float64(len(sample)))) - 1
		if k < 0 {
			k = 0
		}
		exact := sample[k]
		if d := bucketOf(got) - bucketOf(exact); d < -1 || d > 0 {
			t.Fatalf("q=%g: estimate %g (bucket %d) is not within the bucket of the exact order statistic %g (bucket %d)",
				q, got, bucketOf(got), exact, bucketOf(exact))
		}
		if snap := h.Snapshot().Quantile(q); snap != got {
			t.Fatalf("q=%g: snapshot quantile %g != live quantile %g", q, snap, got)
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	epochs := []EpochSpans{{
		Epoch: 3, Now: 3.0,
		Spans: []Span{
			{Name: "drain", Track: 0, N: 2, StartNS: 1000, DurNS: 500},
			{Name: "step", Track: 1, Detail: "workers=4", StartNS: 1600, DurNS: 900},
		},
	}}
	raw, err := ChromeTrace(epochs, []string{"dispatcher", "shard 0"})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("ChromeTrace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 { // 2 metadata + 2 spans
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph != "M" && ph != "X" {
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		if ph == "X" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event missing numeric ts: %v", ev)
			}
			args, _ := ev["args"].(map[string]any)
			if _, ok := args["epoch"]; !ok {
				t.Fatalf("X event args missing epoch: %v", ev)
			}
		}
	}
}

func TestFlightRing(t *testing.T) {
	r := NewRing[FlightDump](2)
	r.Add(FlightDump{Reason: "a", Epoch: 1})
	r.Add(FlightDump{Reason: "b", Epoch: 2})
	r.Add(FlightDump{Reason: "c", Epoch: 3})
	got := r.All()
	if len(got) != 2 || got[0].Reason != "b" || got[1].Reason != "c" {
		t.Fatalf("All() = %+v, want dumps b then c", got)
	}
}
