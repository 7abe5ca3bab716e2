package dispatch

import (
	"fmt"
	"testing"

	"repro/internal/assign"
	"repro/internal/wire"
	"repro/internal/workload"
)

// BenchmarkReplayShards replays one Yueche-scaled trace end to end at
// increasing shard counts, measured at the service boundary (ingest →
// epochs → final snapshot) rather than inside the planner. At small scales
// the per-epoch fan-out overhead dominates; the benchmark exists to track
// where the crossover sits as workloads grow.
func BenchmarkReplayShards(b *testing.B) {
	cfg := workload.Yueche().Scaled(0.05)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	events := sc.Events()
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := New(Config{
					Shards:    shards,
					Grid:      sc.Grid,
					Step:      2,
					Now:       sc.T0,
					NewLadder: benchTier(searchFactory()),
				})
				LoadGen{Events: events, T1: sc.T1}.Run(d)
			}
		})
	}
}

// BenchmarkIngest measures the producer-side cost of admitting events on both
// transports: direct per-event Ingest, and the batched wire path — frame
// decode into a reused buffer plus IngestBatch. The direct case is one event
// per op; the frame case is one 256-event frame per op, so divide by 256 to
// compare per-event cost. Allocations are reported because the batched path's
// per-event amortization is the point of the trajectory.
func BenchmarkIngest(b *testing.B) {
	const batch = 256
	events := make([]wire.Event, batch)
	for i := range events {
		events[i] = wire.Event{Time: 0, Kind: wire.TaskCancel, ID: int64(i + 1)}
	}
	frame, err := wire.AppendFrame(nil, events)
	if err != nil {
		b.Fatal(err)
	}
	newDispatcher := func() *Dispatcher {
		return New(Config{Step: 1, NewLadder: benchTier(greedyFactory())})
	}
	b.Run("direct", func(b *testing.B) {
		d := newDispatcher()
		ev := Event{Time: 0, Kind: KindTaskCancel, ID: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(1<<19) == 0 {
				d.Tick() // drain so the backlog stays bounded
			}
			d.Ingest(ev)
		}
	})
	b.Run("frame", func(b *testing.B) {
		d := newDispatcher()
		decoded := make([]wire.Event, 0, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(1<<11) == 0 {
				d.Tick() // drain so the backlog stays bounded
			}
			var err error
			decoded, _, err = wire.DecodeFrame(frame, decoded[:0])
			if err != nil {
				b.Fatal(err)
			}
			if _, rej := d.IngestBatch(decoded); rej > 0 {
				b.Fatalf("%d events rejected", rej)
			}
		}
	})
}

// BenchmarkAdmission times one epoch of the ingest queue: a frame of events
// ingested, then one Tick that drains and admits them. The events are cancels
// of unknown ids, so applying one is a map miss and the epoch's cost is the
// queue's own. in-order is the live path's shape, every event due when it
// arrives (600 an epoch, the churn-greedy workload's typical tick);
// behind-backlog sends 256 due events an epoch behind 100,000 events
// future-dated beyond the run; future-dated sends 600 events an epoch one
// step ahead, so each comes due through the pending heap.
func BenchmarkAdmission(b *testing.B) {
	cancels := func(d *Dispatcher, n int, at float64) {
		for i := 0; i < n; i++ {
			d.Ingest(Event{Time: at, Kind: KindTaskCancel, ID: i + 1})
		}
	}
	for _, bc := range []struct {
		name              string
		backlog, perEpoch int
		ahead             float64
	}{
		{"in-order", 0, 600, 0},
		{"behind-backlog", 100000, 256, 0},
		{"future-dated", 0, 600, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := New(Config{Step: 1, NewLadder: benchTier(greedyFactory())})
			cancels(d, bc.backlog, 1e12)
			d.Tick()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cancels(d, bc.perEpoch, d.Now()+bc.ahead)
				d.Tick()
			}
		})
	}
}

// benchTier is oneTier without the plan check: a benchmark times the planner,
// not core.Plan.Check.
func benchTier(f func(int) assign.Planner) func(int) []assign.Planner {
	return func(shard int) []assign.Planner { return []assign.Planner{f(shard)} }
}
