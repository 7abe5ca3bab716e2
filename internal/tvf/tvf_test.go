package tvf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

var tm = geo.NewTravelModel(0.01)

func task(id int, x, y, pub, exp float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: exp, Cell: -1}
}

func worker(id int, x, y, reach, on, off float64) *core.Worker {
	return &core.Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: on, Off: off}
}

func simpleState() State {
	return State{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 0, 1000), worker(2, 0.2, 0, 1, 0, 1000)},
		Tasks:   []*core.Task{task(1, 0.1, 0, 0, 500), task(2, 0.3, 0, 0, 500), task(3, 5, 5, 0, 500)},
		Now:     0,
	}
}

func TestFeaturizeShapeAndBias(t *testing.T) {
	st := simpleState()
	a := Action{Worker: st.Workers[0], Seq: core.Sequence{st.Tasks[0]}}
	f := Featurize(st, a, tm)
	if f[0] != 1 {
		t.Error("bias feature must be 1")
	}
	if f[1] != 1 {
		t.Errorf("|q| feature = %v", f[1])
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %d is %v", i, v)
		}
	}
}

func TestFeaturizeEmptySequence(t *testing.T) {
	st := simpleState()
	a := Action{Worker: st.Workers[0], Seq: nil}
	f := Featurize(st, a, tm)
	if f[1] != 0 {
		t.Error("|q| of empty action should be 0")
	}
	if f[4] != 1 {
		t.Errorf("empty action keeps full slack, got %v", f[4])
	}
	if f[9] != 0 {
		t.Error("virtual fraction of empty action should be 0")
	}
}

func TestFeaturizeLongerSequenceLargerReward(t *testing.T) {
	st := simpleState()
	one := Featurize(st, Action{st.Workers[0], core.Sequence{st.Tasks[0]}}, tm)
	two := Featurize(st, Action{st.Workers[0], core.Sequence{st.Tasks[0], st.Tasks[1]}}, tm)
	if two[1] <= one[1] {
		t.Error("length feature must grow with |q|")
	}
	if two[5] <= one[5] {
		t.Error("travel feature must grow with longer routes")
	}
}

func TestFeaturizeVirtualFraction(t *testing.T) {
	st := simpleState()
	v := task(9, 0.15, 0, 0, 500)
	v.Virtual = true
	f := Featurize(st, Action{st.Workers[0], core.Sequence{st.Tasks[0], v}}, tm)
	if f[9] != 0.5 {
		t.Errorf("virtual fraction = %v, want 0.5", f[9])
	}
}

func TestFeaturizeContention(t *testing.T) {
	st := simpleState()
	// Task 1 at 0.1 is reachable by both workers: contention = 1 (the
	// other worker).
	f := Featurize(st, Action{st.Workers[0], core.Sequence{st.Tasks[0]}}, tm)
	if f[7] != 1.0/16 {
		t.Errorf("contention = %v, want 1/16", f[7])
	}
	// A far-away task only its own worker can reach → zero contention.
	far := Action{st.Workers[0], core.Sequence{st.Tasks[2]}}
	if g := Featurize(st, far, tm); g[7] != 0 {
		t.Errorf("far contention = %v", g[7])
	}
}

func TestFeaturizeWaitsForPublication(t *testing.T) {
	st := simpleState()
	future := task(9, 0.1, 300, 0, 500)
	future.Pub = 300
	f := Featurize(st, Action{st.Workers[0], core.Sequence{future}}, tm)
	// Completion is >= 300, so remaining availability is at most 700.
	if f[11] > 700.0/3600+1e-9 {
		t.Errorf("remaining availability = %v, should respect waiting", f[11])
	}
}

func TestModelPredictDeterministic(t *testing.T) {
	st := simpleState()
	a := Action{st.Workers[0], core.Sequence{st.Tasks[0]}}
	m1 := NewModel(8, 7)
	m2 := NewModel(8, 7)
	f := Featurize(st, a, tm)
	if m1.Predict(f) != m2.Predict(f) {
		t.Error("same seed must give identical models")
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	m := NewModel(8, 3)
	st := simpleState()
	feats := [][FeatureDim]float64{
		Featurize(st, Action{st.Workers[0], core.Sequence{st.Tasks[0]}}, tm),
		Featurize(st, Action{st.Workers[1], core.Sequence{st.Tasks[1]}}, tm),
	}
	var b Batch
	batch := m.PredictBatch(&b, feats)
	for i, f := range feats {
		if math.Abs(batch[i]-m.Predict(f)) > 1e-12 {
			t.Errorf("batch[%d] = %v, single = %v", i, batch[i], m.Predict(f))
		}
	}
	if m.PredictBatch(&b, nil) != nil {
		t.Error("empty batch should return nil")
	}
}

// TestPredictBatchMatchesForward holds the tape-free scoring to the training
// graph's forward pass bit for bit, on random batches of every width from 1
// to 40 scored through one Batch, narrow after wide, with trained and fresh
// weights.
func TestPredictBatchMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	fresh, trained := NewModel(16, 9), NewModel(16, 9)
	var samples []Sample
	for i := 0; i < 200; i++ {
		var s Sample
		for j := range s.Features {
			s.Features[j] = r.NormFloat64()
		}
		s.Opt = r.Float64() * 3
		samples = append(samples, s)
	}
	trained.Train(samples, TrainConfig{Epochs: 3, Seed: 9})
	var b Batch
	for _, m := range []*Model{fresh, trained} {
		for _, n := range []int{40, 1, 7, 32, 2, 40} {
			feats := make([][FeatureDim]float64, n)
			for i := range feats {
				for j := range feats[i] {
					if r.Intn(4) > 0 { // and some zeros, which the kernel skips
						feats[i][j] = r.NormFloat64() * 2
					}
				}
			}
			x := tensor.New(n, FeatureDim)
			for i, f := range feats {
				copy(x.Data[i*FeatureDim:], f[:])
			}
			want := m.forward(nn.Leaf(x)).Val.Data
			got := m.PredictBatch(&b, feats)
			if len(got) != n {
				t.Fatalf("%d features, %d scores", n, len(got))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("width %d, row %d: %v, the graph's %v", n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPredictBatchAllocs holds a warm PredictBatch to no allocation: the
// workspace is the caller's, and no graph is built.
func TestPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := NewModel(16, 1)
	st := simpleState()
	feats := make([][FeatureDim]float64, 32)
	for i := range feats {
		feats[i] = Featurize(st, Action{Worker: st.Workers[0], Seq: st.Tasks[:1+i%2]}, tm)
	}
	var b Batch
	m.PredictBatch(&b, feats)
	if got := testing.AllocsPerRun(100, func() { m.PredictBatch(&b, feats) }); got > 0 {
		t.Errorf("%v allocations a warm call, want none", got)
	}
}

// TestTrainAllocs caps what training allocates: five epochs over 4,096
// samples in 64 mini-batches each. Backward hands each batch's nodes and
// storage back to the pools and every batch is laid out in the same two
// matrices, so what remains is the model's optimizer state and the pools'
// first fill (about 100 KB). A training loop that dropped its graphs
// allocated 20 MB; one that recycled their storage but made every node and
// every batch afresh, 2.9 MB.
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 256 << 10
	m, samples := NewModel(16, 43), randomSamples(4096, 43)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Train(samples, TrainConfig{Epochs: 5, Seed: 43})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("training allocated %d KB", got>>10)
	if got > budget {
		t.Errorf("training allocated %d KB, budget %d KB", got>>10, budget>>10)
	}
}

func TestTrainFitsValueFunction(t *testing.T) {
	// Synthetic ground truth: opt = 3·|q| + reachable-after. The model
	// must learn to rank longer sequences higher.
	r := rand.New(rand.NewSource(21))
	var samples []Sample
	for i := 0; i < 400; i++ {
		var f [FeatureDim]float64
		f[0] = 1
		f[1] = float64(r.Intn(4))
		f[6] = r.Float64()
		f[3] = r.Float64()
		samples = append(samples, Sample{Features: f, Opt: 3*f[1] + 2*f[6]})
	}
	m := NewModel(16, 22)
	loss := m.Train(samples, TrainConfig{Epochs: 60, LR: 0.02, Seed: 22})
	if loss > 0.3 {
		t.Errorf("final training loss = %v, want < 0.3", loss)
	}
	// Ranking check.
	var short, long [FeatureDim]float64
	short[0], short[1], short[6] = 1, 1, 0.5
	long[0], long[1], long[6] = 1, 3, 0.5
	if m.Predict(long) <= m.Predict(short) {
		t.Error("trained TVF must rank longer sequences above shorter ones")
	}
}

func TestTrainEmptySamples(t *testing.T) {
	m := NewModel(8, 23)
	if loss := m.Train(nil, TrainConfig{}); loss != 0 {
		t.Errorf("training on no samples should be a no-op, loss=%v", loss)
	}
}

func TestTrainDeterministic(t *testing.T) {
	var samples []Sample
	for i := 0; i < 50; i++ {
		var f [FeatureDim]float64
		f[0], f[1] = 1, float64(i%4)
		samples = append(samples, Sample{Features: f, Opt: f[1]})
	}
	run := func() float64 {
		m := NewModel(8, 29)
		m.Train(samples, TrainConfig{Epochs: 10, Seed: 29})
		var probe [FeatureDim]float64
		probe[0], probe[1] = 1, 2
		return m.Predict(probe)
	}
	if run() != run() {
		t.Error("training must be deterministic for a fixed seed")
	}
}

func TestModelParamCount(t *testing.T) {
	m := NewModel(16, 31)
	want := (FeatureDim*16 + 16) + (16 + 1)
	if m.ParamCount() != want {
		t.Errorf("ParamCount = %d, want %d", m.ParamCount(), want)
	}
	// Hidden default kicks in.
	if NewModel(0, 31).ParamCount() == 0 {
		t.Error("default hidden width missing")
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Epochs <= 0 || c.BatchSize <= 0 || c.LR <= 0 {
		t.Errorf("defaults missing: %+v", c)
	}
}

// randomSamples returns n samples of normal features and targets in [0, 3).
func randomSamples(n int, seed int64) []Sample {
	r := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		for j := range samples[i].Features {
			samples[i].Features[j] = r.NormFloat64()
		}
		samples[i].Opt = r.Float64() * 3
	}
	return samples
}

// TestTrainPinned holds training to the exact bits it produced when the TVF
// had its own training loop: every parameter after five epochs over 300
// samples (four full mini-batches and a short one an epoch), and the loss
// Train returns, in one FNV hash. The constant is the same on every CPU, on
// the AVX2 kernels and on the pure-Go path (fmath.AVX2 cleared).
func TestTrainPinned(t *testing.T) {
	t.Run("cpu", testTrainPinned)
	if !fmath.AVX2 {
		return
	}
	fmath.AVX2 = false
	defer func() { fmath.AVX2 = true }()
	t.Run("go", testTrainPinned)
}

func testTrainPinned(t *testing.T) {
	const want uint64 = 0x880defb066711f44

	m := NewModel(16, 41)
	loss := m.Train(randomSamples(300, 41), TrainConfig{Epochs: 5, Seed: 41})
	h := fnv.New64a()
	write := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(v)))
		}
	}
	write(loss)
	for _, p := range m.params.All() {
		write(p.Val.Data...)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("hash of the loss and parameters after training %#x, want %#x", got, want)
	}
}
