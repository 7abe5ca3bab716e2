package predict

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/tensor"
)

func testConfig() SeriesConfig {
	return SeriesConfig{
		Grid:   geo.NewGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, 2, 2),
		K:      3,
		DeltaT: 5,
		T0:     0,
	}
}

func taskAt(id int, x, y, pub float64) *core.Task {
	return &core.Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: pub + 100, Cell: -1}
}

func TestBuildSeriesFig3Example(t *testing.T) {
	// Reproduce the paper's Fig. 3: k=3, tasks in the first two ΔT
	// intervals but not the third ⇒ c = <1,1,0> for that cell.
	cfg := testConfig()
	tasks := []*core.Task{
		taskAt(1, 0.5, 0.5, 1),  // cell 0, interval 0
		taskAt(2, 0.5, 0.5, 7),  // cell 0, interval 1
		taskAt(3, 0.5, 0.5, 16), // next vector, interval 0
		taskAt(4, 1.5, 0.5, 26), // cell 1, second vector interval 2
	}
	s := BuildSeries(cfg, tasks, 30)
	if s.P() != 2 {
		t.Fatalf("P = %d, want 2", s.P())
	}
	v0 := s.Vectors[0]
	if v0.At(0, 0) != 1 || v0.At(0, 1) != 1 || v0.At(0, 2) != 0 {
		t.Errorf("cell0 vector0 = %v, want <1,1,0>", v0.Data[:3])
	}
	v1 := s.Vectors[1]
	if v1.At(0, 0) != 1 || v1.At(0, 1) != 0 || v1.At(0, 2) != 0 {
		t.Errorf("cell0 vector1 = %v, want <1,0,0>", v1.Data[:3])
	}
	if v1.At(1, 2) != 1 {
		t.Errorf("cell1 vector1 = %v, want task in interval 2", v1.Data[3:6])
	}
}

func TestBuildSeriesIgnoresOutOfRangeTimes(t *testing.T) {
	cfg := testConfig()
	tasks := []*core.Task{
		taskAt(1, 0.5, 0.5, -3), // before T0
		taskAt(2, 0.5, 0.5, 31), // after the last full vector
	}
	s := BuildSeries(cfg, tasks, 30)
	for _, v := range s.Vectors {
		if tensor.Sum(v) != 0 {
			t.Fatal("out-of-range tasks must not appear")
		}
	}
}

func TestBuildSeriesBoundaryBinning(t *testing.T) {
	cfg := testConfig()
	// A task exactly at an interval boundary belongs to the later interval
	// (Eq. 2 uses a half-open interval).
	s := BuildSeries(cfg, []*core.Task{taskAt(1, 0.5, 0.5, 5)}, 15)
	if s.Vectors[0].At(0, 0) != 0 || s.Vectors[0].At(0, 1) != 1 {
		t.Errorf("boundary task misbinned: %v", s.Vectors[0].Data[:3])
	}
}

func TestBuildSeriesEmptyAndValidation(t *testing.T) {
	cfg := testConfig()
	s := BuildSeries(cfg, nil, 10)
	if s.P() != 0 {
		t.Errorf("10s window with 15s span should have 0 vectors, got %d", s.P())
	}
	for _, bad := range []func(){
		func() { BuildSeries(SeriesConfig{Grid: cfg.Grid, K: 1, DeltaT: 5}, nil, 10) },
		func() { BuildSeries(SeriesConfig{Grid: cfg.Grid, K: 3, DeltaT: 0}, nil, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid config")
				}
			}()
			bad()
		}()
	}
}

func TestBuildSeriesBinaryProperty(t *testing.T) {
	cfg := testConfig()
	f := func(pubs []float64) bool {
		var tasks []*core.Task
		for i, p := range pubs {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			tasks = append(tasks, taskAt(i, 0.5, 0.5, math.Mod(math.Abs(p), 60)))
		}
		s := BuildSeries(cfg, tasks, 60)
		for _, v := range s.Vectors {
			for _, x := range v.Data {
				if x != 0 && x != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindows(t *testing.T) {
	cfg := testConfig()
	var tasks []*core.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, taskAt(i, 0.5, 0.5, float64(i*15)))
	}
	s := BuildSeries(cfg, tasks, 300) // 20 vectors
	ws := s.Windows(4, 1)
	if len(ws) != 16 {
		t.Fatalf("got %d windows, want 16", len(ws))
	}
	for _, w := range ws {
		if len(w.Inputs) != 4 {
			t.Fatalf("window history = %d", len(w.Inputs))
		}
		// Target is the vector right after the inputs.
		if s.Vectors[w.Index] != w.Target {
			t.Fatal("target mismatch")
		}
	}
	// Stride 2 halves the count.
	if got := len(s.Windows(4, 2)); got != 8 {
		t.Errorf("stride-2 windows = %d, want 8", got)
	}
}

func TestSplitWindows(t *testing.T) {
	ws := make([]Window, 10)
	train, test := SplitWindows(ws, 0.8)
	if len(train) != 8 || len(test) != 2 {
		t.Errorf("split = %d/%d", len(train), len(test))
	}
	train, test = SplitWindows(ws, 0)
	if len(train) != 0 || len(test) != 10 {
		t.Errorf("zero split = %d/%d", len(train), len(test))
	}
	train, test = SplitWindows(ws, 2)
	if len(train) != 10 || len(test) != 0 {
		t.Errorf("overflow split = %d/%d", len(train), len(test))
	}
}

func TestVirtualTasks(t *testing.T) {
	cfg := testConfig()
	probs := tensor.New(4, 3)
	probs.Set(0, 1, 0.9)  // above threshold
	probs.Set(2, 0, 0.86) // above
	probs.Set(3, 2, 0.5)  // below
	vts := VirtualTasks(probs, cfg, 100, 0.85, 40, -1)
	if len(vts) != 2 {
		t.Fatalf("got %d virtual tasks, want 2", len(vts))
	}
	first := vts[0]
	if !first.Virtual {
		t.Error("task must be marked virtual")
	}
	if first.ID >= 0 {
		t.Error("virtual ids must stay negative")
	}
	if first.Pub != 105 { // interval 1 of vector starting at 100
		t.Errorf("pub = %v, want 105", first.Pub)
	}
	if first.Exp != 145 {
		t.Errorf("exp = %v, want 145", first.Exp)
	}
	if cfg.Grid.CellOf(first.Loc) != 0 {
		t.Errorf("virtual task in wrong cell: %v", first.Loc)
	}
	// IDs are distinct.
	if vts[0].ID == vts[1].ID {
		t.Error("virtual ids must be distinct")
	}
	// Default threshold kicks in for threshold <= 0.
	if got := VirtualTasks(probs, cfg, 100, 0, 40, -1); len(got) != 2 {
		t.Errorf("default threshold: got %d", len(got))
	}
}
