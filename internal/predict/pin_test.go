package predict

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// hashBits is FNV-1a over the bit patterns of every value of ms, in order.
func hashBits(ms ...*tensor.Matrix) uint64 {
	h := fnv.New64a()
	for _, m := range ms {
		writeBits(h, m.Data...)
	}
	return h.Sum64()
}

// writeBits feeds h the bit pattern of every value, in order.
func writeBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(v)))
	}
}

// TestDDGNNForecastPinned holds the DDGNN to the exact bits it produced
// before the blocked matrix kernel: the forecast of BenchmarkDDGNNPredict's
// fixture and every parameter after BenchmarkDDGNNTrainEpoch's one epoch. A
// change to tensor, nn or fmath that moves one bit of either fails here; if
// the change means to, record the new constants and say why.
//
// Every model pin has one constant, the same on every CPU: the model stack
// takes its transcendentals from fmath, never from math, whose amd64
// assembly differs in the last bit and with FMA. Each runs on the kernels
// this CPU takes and, where those are AVX2's, again on the pure-Go path.
func TestDDGNNForecastPinned(t *testing.T) { onEveryPath(t, testDDGNNForecastPinned) }

func testDDGNNForecastPinned(t *testing.T) {
	const wantForecast, wantParams uint64 = 0xb0f26feb7bcbab9b, 0x19518fc25211ce31

	m, inputs := predictFixture()
	if got := hashBits(m.Predict(inputs)); got != wantForecast {
		t.Errorf("forecast hash %#x, want %#x", got, wantForecast)
	}
	var params []*tensor.Matrix
	for _, p := range trainEpochFixture().params.All() {
		params = append(params, p.Val)
	}
	if got := hashBits(params...); got != wantParams {
		t.Errorf("parameter hash after one epoch %#x, want %#x", got, wantParams)
	}
}

// onEveryPath runs f as subtest "cpu", with the kernels this CPU runs, and,
// where those are the AVX2 ones, again as "go" with fmath.AVX2 cleared, as
// on a CPU without AVX2: fmath's scalar functions and tensor's mulAddGo.
func onEveryPath(t *testing.T, f func(*testing.T)) {
	t.Run("cpu", f)
	if !fmath.AVX2 {
		return
	}
	fmath.AVX2 = false
	defer func() { fmath.AVX2 = true }()
	t.Run("go", f)
}

// hashingModel feeds every forecast it returns to h.
type hashingModel struct {
	Predictor
	h hash.Hash
}

func (m *hashingModel) Predict(in []*tensor.Matrix) *tensor.Matrix {
	out := m.Predictor.Predict(in)
	writeBits(m.h, out.Data...)
	return out
}

// TestForecastStreamPinned holds the forecast path to the exact bits it
// produced before the DDGNN trunk carried values from one forecast to the
// next: thirty consecutive Forecaster.Virtuals refreshes over one published
// stream, every probability of every forecast and every virtual task, in one
// FNV hash. About one task in fifty reaches the forecaster two vectors after
// its publication, rewriting a vector earlier refreshes already read.
func TestForecastStreamPinned(t *testing.T) { onEveryPath(t, testForecastStreamPinned) }

func testForecastStreamPinned(t *testing.T) {
	const want uint64 = 0xd756f5d2f256bdcc

	m, _ := predictFixture()
	h := fnv.New64a()
	f := NewForecaster(&hashingModel{m, h}, pinnedCfg, pinnedHistory, 0.5, 40)
	virtuals := 0
	for _, published := range pinnedStream() {
		for _, v := range f.Virtuals(published.tasks, published.now) {
			writeBits(h, float64(v.ID), float64(v.Cell), v.Pub, v.Exp)
			virtuals++
		}
	}
	if virtuals == 0 {
		t.Fatal("no virtual task in thirty refreshes: the pin covers no materialization")
	}
	if got := h.Sum64(); got != want {
		t.Errorf("stream hash %#x over %d virtual tasks, want %#x", got, virtuals, want)
	}
}

// TestSampledStreamPinned holds the scenario sampler to the exact draws it
// made when every draw had a generator of its own: TestForecastStreamPinned's
// thirty refreshes through a ScenarioSampler at K=5, every task's id, cell,
// times and scenario mask in one FNV hash. Two samplers compared with each
// other would change alike; this hash does not. It has two constants:
// sampled ids start lower on 64-bit targets (sampledIDBase).
func TestSampledStreamPinned(t *testing.T) { onEveryPath(t, testSampledStreamPinned) }

func testSampledStreamPinned(t *testing.T) {
	want := uint64(0xde3be5df876b8179)
	if bits.UintSize == 32 {
		want = 0xec28651e7860454d
	}

	m, _ := predictFixture()
	h := fnv.New64a()
	s := NewScenarioSampler(NewForecaster(m, pinnedCfg, pinnedHistory, 0.5, 40), 5, 3)
	tagged := 0
	for _, published := range pinnedStream() {
		for _, v := range s.Virtuals(published.tasks, published.now) {
			writeBits(h, float64(v.ID), float64(v.Cell), v.Pub, v.Exp, math.Float64frombits(v.SampleBits))
			if v.SampleBits != 0 {
				tagged++
			}
		}
	}
	if tagged == 0 {
		t.Fatal("no scenario-tagged task in thirty refreshes: the pin covers no draw")
	}
	if got := h.Sum64(); got != want {
		t.Errorf("sampled stream hash %#x over %d tagged tasks, want %#x", got, tagged, want)
	}
}

// The pinned streams' grid, history and length.
var pinnedCfg = SeriesConfig{Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 6, 6), K: 3, DeltaT: 5}

const pinnedHistory, pinnedRefreshes = 8, 30

// refresh is one forecast instant of a pinned stream and what was published
// by then.
type refresh struct {
	now   float64
	tasks []*core.Task
}

// pinnedStream returns thirty consecutive refreshes over one published
// stream of 1,500 tasks on the 6×6 grid.
func pinnedStream() []refresh {
	span := pinnedCfg.VectorSpan()
	r := rand.New(rand.NewSource(29))
	type arrival struct {
		task *core.Task
		at   float64
	}
	var stream []arrival
	for i := 0; i < 1500; i++ {
		pub := float64(pinnedHistory+pinnedRefreshes) * span * r.Float64()
		at := pub
		if r.Float64() < 0.02 {
			at += 2 * span
		}
		stream = append(stream, arrival{taskAt(i, 6*r.Float64(), 6*r.Float64(), pub), at})
	}
	var out []refresh
	for i := 0; i < pinnedRefreshes; i++ {
		rf := refresh{now: float64(pinnedHistory+i) * span}
		for _, a := range stream {
			if a.at < rf.now {
				rf.tasks = append(rf.tasks, a.task)
			}
		}
		out = append(out, rf)
	}
	return out
}

// TestTrainedParamsPinned holds the other three predictors' training to the
// exact bits it produced when each model had its own Fit: every parameter of
// the LSTM, Graph-WaveNet and DDGNN-static after two epochs over one series,
// with the paper runs' learning rate and weight decay. TestDDGNNForecastPinned
// holds the DDGNN's.
func TestTrainedParamsPinned(t *testing.T) { onEveryPath(t, testTrainedParamsPinned) }

func testTrainedParamsPinned(t *testing.T) {
	ws := windowsFrom(syntheticSeries(36, 3, 20, 23), 8)
	cfg := TrainConfig{Epochs: 2, LR: 0.02, WeightDecay: 1e-3, Seed: 23}
	lstm := NewLSTMPredictor(3, 8, cfg)
	gwn := NewGraphWaveNet(36, 3, 8, 4, cfg)
	static := NewStaticAdjacencyDDGNN(DDGNNConfig{K: 3, Hidden: 8, Embed: 4, Train: cfg})
	for _, c := range []struct {
		m      Predictor
		params *nn.Params
		want   uint64
	}{
		{lstm, lstm.params, 0x5e07fd09f731567b},
		{gwn, gwn.params, 0x87973ca67bfd3a49},
		{static, static.params, 0xcd6194ea737ea2d7},
	} {
		c.m.Fit(ws)
		var vals []*tensor.Matrix
		for _, p := range c.params.All() {
			vals = append(vals, p.Val)
		}
		if got := hashBits(vals...); got != c.want {
			t.Errorf("%s: parameter hash after two epochs %#x, want %#x", c.m.Name(), got, c.want)
		}
	}
}
