package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// streamHash hashes a trace's event stream as the replay encodes it: one
// frame per frameCap events.
func streamHash(t *testing.T, tr *trace) [32]byte {
	t.Helper()
	h := sha256.New()
	var frame []byte
	for i := 0; i < len(tr.events); i += frameCap {
		var err error
		frame, err = wire.AppendFrame(frame[:0], tr.events[i:min(i+frameCap, len(tr.events))])
		if err != nil {
			t.Fatalf("event stream does not encode: %v", err)
		}
		h.Write(frame)
	}
	return [32]byte(h.Sum(nil))
}

func TestSeedDeterminesEventStream(t *testing.T) {
	for _, s := range specs {
		hashes := func(seed int64) [][32]byte {
			var out [][32]byte
			for _, tr := range s.traces(s.smoke, seed) {
				out = append(out, streamHash(t, tr))
			}
			return out
		}
		a, b, c := hashes(1), hashes(1), hashes(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different event streams", s.name)
		}
		seen := make(map[[32]byte]bool)
		for _, h := range append(a, c...) {
			if seen[h] {
				t.Errorf("%s: two variants of seeds 1 and 2 share an event stream", s.name)
			}
			seen[h] = true
		}
	}
}

func TestControlTrafficReferencesLiveIDs(t *testing.T) {
	s, _ := specByName("churn-greedy")
	tr := s.generate(s.smoke, 7)
	offline := make(map[int64]float64)
	kinds := make(map[wire.Kind]int)
	for i, ev := range tr.events {
		kinds[ev.Kind]++
		if ev.Time < tr.t0 || ev.Time >= tr.t1 {
			t.Fatalf("event %d (%v) at %.3f outside [%.0f, %.0f)", i, ev.Kind, ev.Time, tr.t0, tr.t1)
		}
		if i > 0 && ev.Time < tr.events[i-1].Time {
			t.Fatalf("event %d is out of time order", i)
		}
		switch ev.Kind {
		case wire.Position, wire.WorkerOffline:
			w, ok := tr.workers[int(ev.ID)]
			if !ok {
				t.Fatalf("%v for unknown worker %d", ev.Kind, ev.ID)
			}
			if ev.Time < w.On || ev.Time >= w.Off {
				t.Errorf("%v for worker %d at %.3f outside its window [%.3f, %.3f)", ev.Kind, ev.ID, ev.Time, w.On, w.Off)
			}
			if at, gone := offline[ev.ID]; gone {
				t.Errorf("%v for worker %d at %.3f after its offline at %.3f", ev.Kind, ev.ID, ev.Time, at)
			}
			if ev.Kind == wire.WorkerOffline {
				offline[ev.ID] = ev.Time
			}
		case wire.TaskCancel:
			task, ok := tr.tasks[int(ev.ID)]
			if !ok {
				t.Fatalf("cancel for unknown task %d", ev.ID)
			}
			if ev.Time < task.Pub || ev.Time >= task.Exp {
				t.Errorf("cancel for task %d at %.3f outside its window [%.3f, %.3f)", ev.ID, ev.Time, task.Pub, task.Exp)
			}
		}
	}
	for _, k := range []wire.Kind{wire.WorkerOnline, wire.WorkerOffline, wire.TaskSubmit, wire.TaskCancel, wire.Position} {
		if kinds[k] == 0 {
			t.Errorf("churn trace carries no %v event", k)
		}
	}
}

func TestPercentile(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(series, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty series = %v, want 0", got)
	}
	// 450 epochs leave 22 samples above the reported p95.
	long := make([]float64, 450)
	for i := range long {
		long[i] = float64(i)
	}
	if got := percentile(long, 0.95); got != 427 {
		t.Errorf("p95 of 0..449 = %v, want 427", got)
	}
}

func TestEpochMinimum(t *testing.T) {
	got := epochMinimum([][]int64{{5, 9, 3, 7}, {6, 2, 4, 7}, {8, 8, 1}})
	if want := []int64{5, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("epochMinimum = %v, want %v", got, want)
	}
	if got := epochMinimum(nil); got != nil {
		t.Errorf("epochMinimum of no replays = %v, want nil", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// tick [0,100) → drain [0,10), step [10,90) → two parallel shard steps
	// [12,50) and [15,85), the second with a plan of 60 → arbitration [90,98).
	spans := []span{
		{ID: 1, Name: spanTick, StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "dispatch.drain", StartNS: 0, DurNS: 10},
		{ID: 3, Parent: 1, Name: "dispatch.step", StartNS: 10, DurNS: 80},
		{ID: 4, Parent: 3, Name: spanShardStep, Track: 1, StartNS: 12, DurNS: 38},
		{ID: 5, Parent: 3, Name: spanShardStep, Track: 2, StartNS: 15, DurNS: 70},
		{ID: 6, Parent: 5, Name: spanPlan, Track: 2, StartNS: 15, DurNS: 60},
		{ID: 7, Parent: 1, Name: "dispatch.arbitration", StartNS: 90, DurNS: 8},
	}
	want := map[int]int64{
		1: 2,  // 100 − (10 + 80 + 8)
		2: 10, // leaf
		3: 7,  // 80 − |[12,85)|: parallel children count once
		4: 38,
		5: 10, // 70 − 60
		6: 60,
		7: 8,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestManifestMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the command defaults to %v", m.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, s := range specs {
		have = append(have, s.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, have)
	}
	defs := func(ms []manifestMetric) []metricDef {
		var out []metricDef
		for _, x := range ms {
			out = append(out, metricDef{x.Name, x.Unit})
		}
		return out
	}
	if got := defs(m.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the command reports %v", got, endToEnd)
	}
	if got := defs(m.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the command reports %v", got, perLayer)
	}
}

// TestWorkloadsEndToEnd runs every workload shape at smoke size with tracing,
// and the cheapest one also without (the untraced path is the same code for
// all four): every output check must pass and every declared metric must be
// reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, s := range specs {
		modes := []bool{true}
		if s.churn {
			modes = append(modes, false)
		}
		for _, trace := range modes {
			var out bytes.Buffer
			res, err := runWorkload(s, options{seed: 1, trace: trace, smoke: true, outDir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", s.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", s.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", s.name, trace, d.name, v.Unit, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}
