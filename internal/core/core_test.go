package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

var tm = geo.NewTravelModel(0.01) // 10 m/s

func task(id int, x, y, pub, exp float64) *Task {
	return &Task{ID: id, Loc: geo.Point{X: x, Y: y}, Pub: pub, Exp: exp, Cell: -1}
}

func worker(id int, x, y, reach, on, off float64) *Worker {
	return &Worker{ID: id, Loc: geo.Point{X: x, Y: y}, Reach: reach, On: on, Off: off}
}

func TestTaskValid(t *testing.T) {
	if !task(1, 0, 0, 0, 10).Valid() {
		t.Error("well-formed task should be valid")
	}
	if task(1, 0, 0, 10, 10).Valid() {
		t.Error("zero-length window should be invalid")
	}
	var nilTask *Task
	if nilTask.Valid() {
		t.Error("nil task should be invalid")
	}
}

func TestWorkerAvailable(t *testing.T) {
	w := worker(1, 0, 0, 1, 10, 20)
	for _, c := range []struct {
		t    float64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, false}, {25, false}} {
		if got := w.Available(c.t); got != c.want {
			t.Errorf("Available(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if w.Window() != 10 {
		t.Errorf("Window = %v", w.Window())
	}
}

func TestArrivalTimesEq1(t *testing.T) {
	// Worker at origin, tasks 1 km apart along x. Speed 10 m/s => 100 s/km.
	q := Sequence{task(1, 1, 0, 0, 1e9), task(2, 2, 0, 0, 1e9)}
	at := ArrivalTimes(geo.Point{}, 50, q, tm)
	if math.Abs(at[0]-150) > 1e-9 {
		t.Errorf("arrival at first = %v, want 150", at[0])
	}
	if math.Abs(at[1]-250) > 1e-9 {
		t.Errorf("arrival at second = %v, want 250", at[1])
	}
}

func TestArrivalTimesWaitsForPublication(t *testing.T) {
	// The virtual task publishes at t=500; the worker arrives at 100 and
	// must wait.
	q := Sequence{task(1, 1, 0, 500, 1e9), task(2, 2, 0, 0, 1e9)}
	at := ArrivalTimes(geo.Point{}, 0, q, tm)
	if at[0] != 500 {
		t.Errorf("arrival should wait for publication: got %v", at[0])
	}
	if math.Abs(at[1]-600) > 1e-9 {
		t.Errorf("second arrival = %v, want 600", at[1])
	}
}

func TestCompletionTime(t *testing.T) {
	if got := CompletionTime(geo.Point{}, 42, nil, tm); got != 42 {
		t.Errorf("empty sequence completion = %v, want now", got)
	}
	q := Sequence{task(1, 1, 0, 0, 1e9)}
	if got := CompletionTime(geo.Point{}, 0, q, tm); math.Abs(got-100) > 1e-9 {
		t.Errorf("completion = %v, want 100", got)
	}
}

func TestValidSequenceConstraints(t *testing.T) {
	w := worker(1, 0, 0, 1.5, 0, 1000)
	ok := Sequence{task(1, 1, 0, 0, 200)}
	if !ValidSequence(w, 0, ok, tm) {
		t.Error("sequence satisfying all constraints should be valid")
	}
	// (i) expiration violated: arrival 100 >= exp 100.
	expired := Sequence{task(1, 1, 0, 0, 100)}
	if ValidSequence(w, 0, expired, tm) {
		t.Error("arrival at expiration must be invalid (strict)")
	}
	// (ii) off time violated.
	wShort := worker(2, 0, 0, 1.5, 0, 100)
	if ValidSequence(wShort, 0, ok, tm) {
		t.Error("arrival at off time must be invalid (strict)")
	}
	// (iii) out of reach from the worker's current location.
	far := Sequence{task(1, 2, 0, 0, 1e9)}
	if ValidSequence(w, 0, far, tm) {
		t.Error("task beyond reach must be invalid")
	}
	if ValidSequence(nil, 0, ok, tm) {
		t.Error("nil worker must be invalid")
	}
	if !ValidSequence(w, 0, nil, tm) {
		t.Error("empty sequence is trivially valid")
	}
}

// TestValidSequenceReachBoundary: a task at exactly the reach is within it,
// as ReachableTasks and the spatial index have it (distance ≤ reach).
func TestValidSequenceReachBoundary(t *testing.T) {
	w := worker(1, 0, 0, 1, 0, 1e9)
	if !ValidSequence(w, 0, Sequence{task(1, 1, 0, 0, 1e9)}, tm) {
		t.Error("a task at exactly the reach must be valid")
	}
	if ValidSequence(w, 0, Sequence{task(2, math.Nextafter(1, 2), 0, 0, 1e9)}, tm) {
		t.Error("a task past the reach must be invalid")
	}
}

// TestPlanCheck: Check accepts a feasible plan and names each way one can
// fail.
func TestPlanCheck(t *testing.T) {
	w1, w2, off := worker(1, 0, 0, 2, 0, 1e9), worker(2, 1, 0, 2, 0, 1e9), worker(3, 0, 0, 2, 50, 1e9)
	s1, s2, gone := task(1, 1, 0, 0, 1e9), task(2, 0, 1, 0, 1e9), task(3, 0, 1, 0, 1e9)
	workers, tasks := []*Worker{w1, w2, off}, []*Task{s1, s2}
	if err := (Plan{{w1, Sequence{s1, s2}}}).Check(workers, tasks, 0, tm); err != nil {
		t.Fatalf("feasible plan: %v", err)
	}
	for _, c := range []struct {
		name string
		p    Plan
		want string
	}{
		{"task twice", Plan{{w1, Sequence{s1}}, {w2, Sequence{s1}}}, "task 1 assigned twice"},
		{"worker twice", Plan{{w1, Sequence{s1}}, {w1, Sequence{s2}}}, "worker#1@(0.00,0.00)d=2.00[0,1000000000) is assigned twice"},
		{"foreign worker", Plan{{worker(1, 0, 0, 2, 0, 1e9), Sequence{s1}}}, "not in the pool or off shift"},
		{"off shift", Plan{{off, Sequence{s1}}}, "not in the pool or off shift"},
		{"foreign task", Plan{{w1, Sequence{gone}}}, "holds task task#3"},
	} {
		if err := c.p.Check(workers, tasks, 0, tm); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error saying %q", c.name, err, c.want)
		}
	}
	short := worker(4, 0, 0, 0.5, 0, 1e9)
	if err := (Plan{{short, Sequence{s1}}}).Check([]*Worker{short}, tasks, 0, tm); err == nil || !strings.Contains(err.Error(), "cannot serve") {
		t.Errorf("task out of reach: %v, want an error saying %q", err, "cannot serve")
	}
}

func TestValidSequenceReachIsFromStart(t *testing.T) {
	// Def 4 (iii) measures reach from the worker's current location, so a
	// chain of 0.9 km hops with reach 1.0 is invalid once a task is >1 km
	// from the start.
	w := worker(1, 0, 0, 1.0, 0, 1e9)
	q := Sequence{task(1, 0.9, 0, 0, 1e9), task(2, 1.8, 0, 0, 1e9)}
	if ValidSequence(w, 0, q, tm) {
		t.Error("second task is out of reach of the start location")
	}
}

func TestSequenceSetKeyOrderIndependent(t *testing.T) {
	a, b, c := task(1, 0, 0, 0, 1), task(2, 0, 0, 0, 1), task(300, 0, 0, 0, 1)
	q1 := Sequence{a, b, c}
	q2 := Sequence{c, a, b}
	if q1.SetKey() != q2.SetKey() {
		t.Error("SetKey must be order independent")
	}
	q3 := Sequence{a, b}
	if q1.SetKey() == q3.SetKey() {
		t.Error("different sets must differ")
	}
}

func TestSequenceSetKeyProperty(t *testing.T) {
	f := func(ids []int, seed int64) bool {
		if len(ids) == 0 {
			return true
		}
		q := make(Sequence, len(ids))
		for i, id := range ids {
			q[i] = task(id&0xffff, 0, 0, 0, 1)
		}
		shuffled := q.Clone()
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return q.SetKey() == shuffled.SetKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequenceCountReal(t *testing.T) {
	v := task(9, 0, 0, 0, 1)
	v.Virtual = true
	q := Sequence{task(1, 0, 0, 0, 1), v, task(2, 0, 0, 0, 1)}
	if q.CountReal() != 2 {
		t.Errorf("CountReal = %d, want 2", q.CountReal())
	}
}

func TestPlanSizeAndConsistency(t *testing.T) {
	w1, w2 := worker(1, 0, 0, 1, 0, 10), worker(2, 0, 0, 1, 0, 10)
	t1, t2, t3 := task(1, 0, 0, 0, 1), task(2, 0, 0, 0, 1), task(3, 0, 0, 0, 1)
	p := Plan{{w1, Sequence{t1, t2}}, {w2, Sequence{t3}}}
	if p.Size() != 3 {
		t.Errorf("Size = %d", p.Size())
	}
	if _, ok := p.Consistent(); !ok {
		t.Error("plan without duplicates should be consistent")
	}
	bad := Plan{{w1, Sequence{t1}}, {w2, Sequence{t1}}}
	if id, ok := bad.Consistent(); ok || id != 1 {
		t.Errorf("Consistent = (%d,%v), want (1,false)", id, ok)
	}
	ids := p.Tasks()
	if len(ids) != 3 || ids[0].ID != 1 || ids[2].ID != 3 {
		t.Errorf("Tasks() = %v", ids)
	}
}

// TestConsistentInReusesScratch: one map checks plan after plan with
// Consistent's verdicts; the ids one plan leaves in it do not count against
// the next, and a warm check allocates nothing.
func TestConsistentInReusesScratch(t *testing.T) {
	w1, w2 := worker(1, 0, 0, 1, 0, 10), worker(2, 0, 0, 1, 0, 10)
	t1, t2, t3 := task(1, 0, 0, 0, 1), task(2, 0, 0, 0, 1), task(3, 0, 0, 0, 1)
	seen := map[int]bool{}
	for i, c := range []struct {
		plan Plan
		dup  int
		ok   bool
	}{
		{Plan{{w1, Sequence{t1, t2}}, {w2, Sequence{t3}}}, 0, true},
		{Plan{{w1, Sequence{t3, t1}}}, 0, true},
		{Plan{{w1, Sequence{t2}}, {w2, Sequence{t3, t2}}}, 2, false},
		{Plan{{w1, Sequence{t2, t2}}}, 2, false},
		{nil, 0, true},
		{Plan{{w2, Sequence{t2}}}, 0, true},
	} {
		wantID, wantOK := c.plan.Consistent()
		id, ok := c.plan.ConsistentIn(seen)
		if id != c.dup || ok != c.ok || id != wantID || ok != wantOK {
			t.Errorf("plan %d: ConsistentIn = (%d,%v), Consistent = (%d,%v), want (%d,%v)", i, id, ok, wantID, wantOK, c.dup, c.ok)
		}
	}
	p := Plan{{w1, Sequence{t1, t2}}, {w2, Sequence{t3}}}
	if n := testing.AllocsPerRun(20, func() { p.ConsistentIn(seen) }); n != 0 {
		t.Errorf("a warm ConsistentIn allocated %.0f objects, want 0", n)
	}
}

func TestPlanRealSize(t *testing.T) {
	v := task(5, 0, 0, 0, 1)
	v.Virtual = true
	p := Plan{{worker(1, 0, 0, 1, 0, 10), Sequence{task(1, 0, 0, 0, 1), v}}}
	if p.RealSize() != 1 {
		t.Errorf("RealSize = %d", p.RealSize())
	}
	if p.Size() != 2 {
		t.Errorf("Size = %d", p.Size())
	}
}

func TestSorters(t *testing.T) {
	tasks := []*Task{task(3, 0, 0, 5, 9), task(1, 0, 0, 1, 9), task(2, 0, 0, 1, 9)}
	SortTasksByPub(tasks)
	if tasks[0].ID != 1 || tasks[1].ID != 2 || tasks[2].ID != 3 {
		t.Errorf("task order = %v,%v,%v", tasks[0].ID, tasks[1].ID, tasks[2].ID)
	}
	ws := []*Worker{worker(2, 0, 0, 1, 7, 9), worker(1, 0, 0, 1, 3, 9), worker(3, 0, 0, 1, 3, 9)}
	SortWorkersByOn(ws)
	if ws[0].ID != 1 || ws[1].ID != 3 || ws[2].ID != 2 {
		t.Errorf("worker order = %v,%v,%v", ws[0].ID, ws[1].ID, ws[2].ID)
	}
}

func TestValidSequencePrefixProperty(t *testing.T) {
	// Invariant: every prefix of a valid sequence is valid.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		w := worker(1, r.Float64()*2, r.Float64()*2, 0.5+r.Float64()*2, 0, 100+r.Float64()*2000)
		var q Sequence
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			q = append(q, task(i, r.Float64()*3, r.Float64()*3, 0, 100+r.Float64()*3000))
		}
		if !ValidSequence(w, 0, q, tm) {
			continue
		}
		for k := 0; k <= len(q); k++ {
			if !ValidSequence(w, 0, q[:k], tm) {
				t.Fatalf("prefix %d of valid sequence is invalid", k)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	s := task(1, 1.5, 1.2, 1, 4)
	if s.String() == "" {
		t.Error("task String empty")
	}
	s.Virtual = true
	if s.String() == "" {
		t.Error("vtask String empty")
	}
	w := worker(1, 0.5, 1, 1.2, 1, 9)
	if w.String() == "" {
		t.Error("worker String empty")
	}
}
