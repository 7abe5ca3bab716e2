package predict

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// constModel always predicts the same probability everywhere.
type constModel struct{ p float64 }

func (c *constModel) Name() string   { return "const" }
func (c *constModel) Fit(_ []Window) {}
func (c *constModel) Predict(in []*tensor.Matrix) *tensor.Matrix {
	out := tensor.New(in[0].Rows, in[0].Cols)
	for i := range out.Data {
		out.Data[i] = c.p
	}
	return out
}

func forecasterFixture(p float64) (*Forecaster, []*core.Task) {
	cfg := testConfig() // 2x2 grid, K=3, deltaT=5 => span 15
	var tasks []*core.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, taskAt(i, 0.5, 0.5, float64(i*10)))
	}
	f := NewForecaster(&constModel{p: p}, cfg, 3, 0.85, 40)
	return f, tasks
}

func TestForecasterNeedsHistory(t *testing.T) {
	f, tasks := forecasterFixture(0.99)
	// At t=30 only 2 complete vectors exist (< History 3): no predictions.
	if got := f.Virtuals(tasks, 30); got != nil {
		t.Errorf("expected nil before enough history, got %d tasks", len(got))
	}
}

func TestForecasterEmitsAheadOfNow(t *testing.T) {
	f, tasks := forecasterFixture(0.99)
	now := 100.0
	vts := f.Virtuals(tasks, now)
	if len(vts) == 0 {
		t.Fatal("confident model should emit virtual tasks")
	}
	// Horizon 1 (default): the predicted vector starts at the end of the
	// last complete vector, i.e. within one span of now.
	span := f.Cfg.VectorSpan()
	for _, v := range vts {
		if !v.Virtual || v.ID >= 0 {
			t.Fatal("virtual tasks must be marked and negatively numbered")
		}
		if v.Pub < now-span || v.Pub > now+span {
			t.Errorf("pub %v outside the next interval around now=%v", v.Pub, now)
		}
		if v.Exp-v.Pub != 40 {
			t.Errorf("validity = %v, want 40", v.Exp-v.Pub)
		}
	}
}

func TestForecasterHorizonShiftsInterval(t *testing.T) {
	f1, tasks := forecasterFixture(0.99)
	f2, _ := forecasterFixture(0.99)
	f2.Horizon = 2
	now := 100.0
	a := f1.Virtuals(tasks, now)
	b := f2.Virtuals(tasks, now)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("both horizons should emit")
	}
	span := f1.Cfg.VectorSpan()
	if b[0].Pub-a[0].Pub != span {
		t.Errorf("horizon 2 should shift predictions one span: %v vs %v", a[0].Pub, b[0].Pub)
	}
}

func TestForecasterSilentWhenUnconfident(t *testing.T) {
	f, tasks := forecasterFixture(0.2) // below the 0.85 threshold
	if got := f.Virtuals(tasks, 100); len(got) != 0 {
		t.Errorf("unconfident model emitted %d tasks", len(got))
	}
}

func TestForecasterIDsNeverRepeat(t *testing.T) {
	f, tasks := forecasterFixture(0.99)
	seen := map[int]bool{}
	for _, now := range []float64{60, 80, 100, 120} {
		for _, v := range f.Virtuals(tasks, now) {
			if seen[v.ID] {
				t.Fatalf("virtual id %d reused", v.ID)
			}
			seen[v.ID] = true
		}
	}
}

func TestForecasterSpan(t *testing.T) {
	f, _ := forecasterFixture(0.5)
	if f.Span() != 15 {
		t.Errorf("Span = %v, want k*deltaT = 15", f.Span())
	}
}

func TestForecasterDefaultThreshold(t *testing.T) {
	cfg := testConfig()
	f := NewForecaster(&constModel{p: 0.9}, cfg, 3, 0, 40)
	if f.Threshold != DefaultThreshold {
		t.Errorf("threshold = %v, want default %v", f.Threshold, DefaultThreshold)
	}
}

func TestWindowsAhead(t *testing.T) {
	cfg := testConfig()
	var tasks []*core.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, taskAt(i, 0.5, 0.5, float64(i*15)))
	}
	s := BuildSeries(cfg, tasks, 300) // 20 vectors
	h1 := s.WindowsAhead(4, 1, 1)
	h2 := s.WindowsAhead(4, 1, 2)
	if len(h2) != len(h1)-1 {
		t.Errorf("horizon 2 should lose one window: %d vs %d", len(h2), len(h1))
	}
	for _, w := range h2 {
		if s.Vectors[w.Index] != w.Target {
			t.Fatal("index/target mismatch")
		}
		// Target is two steps after the last input.
		lastInput := w.Inputs[len(w.Inputs)-1]
		found := -1
		for p, v := range s.Vectors {
			if v == lastInput {
				found = p
			}
		}
		if w.Index != found+2 {
			t.Fatalf("target at %d, last input at %d", w.Index, found)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("horizon 0 should panic")
		}
	}()
	s.WindowsAhead(4, 1, 0)
}
