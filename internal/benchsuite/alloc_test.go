package benchsuite

import (
	"testing"

	"repro"
	"repro/internal/dispatch"
	"repro/internal/scenario"
)

// liveReplay builds a fresh dispatcher for one archetype and replays
// its full trace through the live path — the exact cell the benchmark suite
// measures live allocations on. Used by both the alloc-profile benchmark and
// the steady-state allocation gate.
func liveReplay(tb testing.TB, arch string, m datawa.Method, scale float64) dispatch.LoadResult {
	sc, fw := liveFramework(tb, arch, m, scale)
	return replayLive(tb, sc, fw, m)
}

// liveFramework generates the archetype's trace and trains what the method
// needs; replayLive replays the trace through a fresh two-shard dispatcher.
func liveFramework(tb testing.TB, arch string, m datawa.Method, scale float64) (*datawa.Scenario, *datawa.Framework) {
	a, ok := scenario.Get(arch)
	if !ok {
		tb.Fatalf("unknown archetype %q", arch)
	}
	sc := a.Generate(scale)
	fw, err := framework(sc, m, Options{}.withDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	return sc, fw
}

func replayLive(tb testing.TB, sc *datawa.Scenario, fw *datawa.Framework, m datawa.Method) dispatch.LoadResult {
	d, err := fw.NewDispatcher(m, datawa.DispatchConfig{
		Shards: 2, Step: 2, Now: sc.T0,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return dispatch.LoadGen{Events: sc.Events(), T1: sc.T1}.Run(d)
}

// BenchmarkLiveReplay replays an archetype through the live dispatch path with
// allocation reporting, training outside the timer: a quiet one under Greedy
// and DTA — the profiling anchor for the steady-state allocation work (run with
// -memprofile to rank allocators) — and rush-hour at 2.5x under SSP, which is
// the repository benchmark's robust-ssp workload in-process:
//
//	go test -run '^$' -bench 'LiveReplay/SSP' -cpuprofile cpu.prof ./internal/benchsuite
//
// is the live scenario-sampling planner's profile.
func BenchmarkLiveReplay(b *testing.B) {
	for _, c := range []struct {
		arch   string
		method datawa.Method
		scale  float64
	}{
		{"sparse-suburb", datawa.MethodGreedy, 1},
		{"sparse-suburb", datawa.MethodDTA, 1},
		{"rush-hour", datawa.MethodSSP, 2.5},
	} {
		b.Run(string(c.method), func(b *testing.B) {
			sc, fw := liveFramework(b, c.arch, c.method, c.scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayLive(b, sc, fw, c.method)
			}
		})
	}
}

// TestSteadyStateAllocGate is the allocation regression gate: a full live
// replay of each gated archetype — dispatcher construction included — must
// stay under a fixed allocation budget, failing CI on regression instead of
// merely recording a delta in the BENCH report. Every bound is ~1.5x the row's
// reading; in table order the rows read 1,546 / 2,053 / 4,287–4,288 /
// 4,906–4,907 / 3,349 / 4,292–4,295 / 7,844–7,845 (at -cpu 1, 2 and 4) once
// the live epoch stopped allocating per event — ghost
// replication and arbitration in dispatcher scratch, a Greedy or Match plan
// two arrays, an admitted worker one object, the scenario sampler's draws a
// dense mask, a shard's virtual tasks copied into storage the machine keeps —
// where they read 2,325 / 2,682 / 6,289 / 6,548 / 4,926 / 5,599 / 10,064
// before. Earlier they read 2,301 / 2,653 / 6,276 / 6,550 / 4,994
// / 296,831–297,124 / 309,393–309,573 (the same at -cpu 1, 2 and 4), with
// every epoch planning the whole pool and nothing kept between epochs but the
// planners' scratch. They read 3,050 / 3,402 / 6,724 / 6,998 / 5,593 /
// 297,452–297,704 / 310,028–310,165 while every epoch handed its shards to
// par.Do: an epoch that steps its shards inline makes no closure and no
// goroutines, and every row's bound came down to 1.5x its new reading.
//
// How each row got there, in the readings of its day. Those were taken under a
// cross-epoch plan cache that built a component list per epoch (7,324 / 12,574
// / 13,552 / 16,852 / 16,995 / 316,530 / 344,614 just before it was deleted),
// so they compare with one another and not with the line above. Greedy: the
// indexed worker scan with the best-sequence pick measured 7,808 / 13,461
// (generating, cloning and sorting every Q_w to read its head 8,354 / 16,303 —
// what is left is the dispatcher's and the plans' own). DTA: Q_w generated as
// position tuples, with one backing array per worker for the survivors,
// measured 12,276 / 16,284 / 16,697 (a heap object per deduped sequence 11,657
// / 17,933 / 46,326, and the map-and-scan core before that 19,326 / 36,900 /
// 445,663) — event-spike is the crowd regime, where a per-node, per-worker or
// per-sequence allocation shows as a multiple, not a percentage, and its bound
// came down from 70,000 with the reading, then from 23,000 to 16,000 when Q_w
// became positions in RS_w and only committed sequences task slices (11,296 →
// 7,973 a replay). DTA+TP is the forecast-fed row —
// DDGNN training and a forecast every 15 s included: the receptive-field
// forward with recycled value storage measured 316,108 (946,348 with the
// full-sequence forward and a Series since T0 per forecast). SSP adds the
// scenario sampler and five scenarios per instant: 344,697 with Q_w generated
// once per distinct (worker, reachable set) of a call — one backing array for
// the scenarios that share it — where five searches from scratch measured
// 364,072 (384,195 before the tuples; 386,254 allocating the candidate plans,
// counters and CVaR sort buffer per call); the transposition table's slots and
// plan arena are reused across trees and instants and do not show, and SSP
// never ran under the cache, so its row alone reads what it read. Both
// forecast-fed rows then fell thirtyfold when the autodiff graph stopped
// allocating — nodes from a pool, each operation's backward step chosen by
// its kind instead of a closure, the TVF's mini-batches in one pair of
// matrices — and SSP stopped materializing the candidates it does not commit:
// DTA+TP 216,160 → 6,665–6,669 and SSP 228,700 → 11,130–11,133 (at -cpu 1, 2
// and 4), and their bounds came down from 446,000 and 465,000 to 1.5x the new
// readings. The wire
// path the suite replays through costs the frame and decode buffers, 270 to
// 550 a replay, and a search planner keeps two dozen one-time tables for the
// staged pass.
func TestSteadyStateAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	if raceEnabled {
		t.Skip("the race detector allocates; the bench-suite job runs this gate without it")
	}
	for _, tc := range []struct {
		arch   string
		method datawa.Method
		limit  float64
	}{
		{"sparse-suburb", datawa.MethodGreedy, 2300},
		{"sparse-suburb", datawa.MethodDTA, 3100},
		{"courier-grid", datawa.MethodGreedy, 6400},
		{"courier-grid", datawa.MethodDTA, 7400},
		{"event-spike", datawa.MethodDTA, 5000},
		{"rush-hour", datawa.MethodDTATP, 6400},
		{"rush-hour", datawa.MethodSSP, 11800},
	} {
		t.Run(tc.arch+"/"+string(tc.method), func(t *testing.T) {
			allocs := testing.AllocsPerRun(2, func() { liveReplay(t, tc.arch, tc.method, 1) })
			t.Logf("live replay allocates %.0f per run, gate is %.0f", allocs, tc.limit)
			if allocs > tc.limit {
				t.Fatalf("live replay allocates %.0f per run, gate is %.0f", allocs, tc.limit)
			}
		})
	}
}
