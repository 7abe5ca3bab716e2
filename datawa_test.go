package datawa

import (
	"strings"
	"testing"
)

// smallScenario returns a fast deterministic scenario for façade tests.
func smallScenario() *Scenario {
	cfg := YuecheScenario().Scaled(0.04)
	return GenerateScenario(cfg)
}

func frameworkFor(s *Scenario) *Framework {
	return New(Config{
		Region:   Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6},
		GridRows: 6, GridCols: 6,
		Epochs: 3, TVFEpochs: 8, Step: 2, Seed: 7,
	})
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 || ms[0] != MethodGreedy || ms[4] != MethodDATAWA || ms[5] != MethodSSP {
		t.Errorf("Methods() = %v", ms)
	}
}

func TestRunBaselinesWithoutTraining(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	for _, m := range []Method{MethodGreedy, MethodFTA, MethodDTA} {
		res, err := fw.Run(m, s.Workers, s.Tasks, s.T0, s.T1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Assigned <= 0 {
			t.Errorf("%s assigned %d tasks, want > 0", m, res.Assigned)
		}
		if res.Assigned+res.Expired > len(s.Tasks) {
			t.Errorf("%s: assigned+expired exceeds |S|", m)
		}
	}
}

func TestPredictionMethodsRequireTraining(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	if _, err := fw.Run(MethodDTATP, s.Workers, s.Tasks, s.T0, s.T1); err == nil {
		t.Error("DTA+TP without TrainDemand should fail")
	}
	if _, err := fw.Run(MethodDATAWA, s.Workers, s.Tasks, s.T0, s.T1); err == nil {
		t.Error("DATA-WA without training should fail")
	}
	if err := fw.TrainDemand(s.History); err != nil {
		t.Fatalf("TrainDemand: %v", err)
	}
	if !fw.HasDemandModel() {
		t.Error("HasDemandModel should be true after TrainDemand")
	}
	if _, err := fw.Run(MethodDATAWA, s.Workers, s.Tasks, s.T0, s.T1); err == nil {
		t.Error("DATA-WA without TrainValue should still fail")
	}
}

func TestFullDATAWAPipeline(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	if err := fw.TrainDemand(s.History); err != nil {
		t.Fatalf("TrainDemand: %v", err)
	}
	if err := fw.TrainValue(s.Workers, s.Tasks, 3); err != nil {
		t.Fatalf("TrainValue: %v", err)
	}
	if !fw.HasValueModel() {
		t.Error("HasValueModel should be true")
	}
	for _, m := range []Method{MethodDTATP, MethodDATAWA} {
		res, err := fw.Run(m, s.Workers, s.Tasks, s.T0, s.T1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Assigned < 0 || res.Assigned > len(s.Tasks) {
			t.Errorf("%s assigned %d", m, res.Assigned)
		}
		if res.PlanCalls == 0 {
			t.Errorf("%s never planned", m)
		}
	}
}

func TestSSPRequiresTraining(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	if _, err := fw.Run(MethodSSP, s.Workers, s.Tasks, s.T0, s.T1); err == nil {
		t.Error("SSP without TrainDemand should fail")
	}
	if _, err := fw.NewDispatcher(MethodSSP, DispatchConfig{}); err == nil {
		t.Error("SSP dispatcher without TrainDemand should fail")
	}
}

// TestSSPOneSampleMatchesPointForecast pins the K=1 contract at the façade
// level: SSP with a single sample is the point-forecast pipeline (DTA+TP)
// byte for byte, so every aggregate matches exactly.
func TestSSPOneSampleMatchesPointForecast(t *testing.T) {
	s := smallScenario()
	run := func(m Method, samples int) Result {
		fw := New(Config{
			Region:   Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6},
			GridRows: 6, GridCols: 6,
			Epochs: 3, TVFEpochs: 8, Step: 2, Seed: 7,
			Samples: samples,
		})
		if err := fw.TrainDemand(s.History); err != nil {
			t.Fatalf("TrainDemand: %v", err)
		}
		res, err := fw.Run(m, s.Workers, s.Tasks, s.T0, s.T1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return res
	}
	ref := run(MethodDTATP, 0)
	ssp1 := run(MethodSSP, 1)
	if ssp1.Assigned != ref.Assigned || ssp1.Expired != ref.Expired ||
		ssp1.PlanCalls != ref.PlanCalls || ssp1.Repositions != ref.Repositions {
		t.Errorf("SSP K=1 diverged from DTA+TP: assigned %d/%d expired %d/%d plans %d/%d repositions %d/%d",
			ssp1.Assigned, ref.Assigned, ssp1.Expired, ref.Expired,
			ssp1.PlanCalls, ref.PlanCalls, ssp1.Repositions, ref.Repositions)
	}
	// The default sample count must run end to end too (outcomes may differ —
	// that is the point of sampling).
	sspK := run(MethodSSP, 0)
	if sspK.Assigned < 0 || sspK.Assigned+sspK.Expired > len(s.Tasks) {
		t.Errorf("SSP sampled run inconsistent: %+v", sspK)
	}
}

func TestRunUnknownMethod(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	if _, err := fw.Run(Method("bogus"), s.Workers, s.Tasks, s.T0, s.T1); err == nil {
		t.Error("unknown method should fail")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error should name the method: %v", err)
	}
}

func TestAssignOneInstant(t *testing.T) {
	s := smallScenario()
	fw := frameworkFor(s)
	// Take a mid-run snapshot.
	now := (s.T0 + s.T1) / 2
	var workers []*Worker
	for _, w := range s.Workers {
		if w.Available(now) {
			workers = append(workers, w)
		}
	}
	var tasks []*Task
	for _, task := range s.Tasks {
		if task.Pub <= now && task.Exp > now {
			tasks = append(tasks, task)
		}
	}
	if len(workers) == 0 || len(tasks) == 0 {
		t.Skip("snapshot empty at this scale")
	}
	plan := fw.Assign(workers, tasks, now)
	if _, ok := plan.Consistent(); !ok {
		t.Error("plan assigns a task twice")
	}
}

func TestTrainDemandValidation(t *testing.T) {
	fw := New(Config{}) // no region
	if err := fw.TrainDemand([]*Task{{ID: 1}}); err == nil {
		t.Error("TrainDemand without region should fail")
	}
	fw = New(Config{Region: Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}})
	if err := fw.TrainDemand(nil); err == nil {
		t.Error("TrainDemand without history should fail")
	}
	// Too little history for even one window.
	short := []*Task{{ID: 1, Loc: Point{X: 1, Y: 1}, Pub: 0, Exp: 40}}
	if err := fw.TrainDemand(short); err == nil {
		t.Error("TrainDemand with one task should fail")
	}
}

func TestTrainValueValidation(t *testing.T) {
	fw := New(Config{Region: Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}})
	if err := fw.TrainValue(nil, nil, 4); err == nil {
		t.Error("TrainValue without data should fail")
	}
}

func TestScenarioGenerators(t *testing.T) {
	y := YuecheScenario()
	d := DiDiScenario()
	if y.NumWorkers != 624 || d.NumWorkers != 760 {
		t.Errorf("scenario cardinalities wrong: %d, %d", y.NumWorkers, d.NumWorkers)
	}
	s := GenerateScenario(y.Scaled(0.02))
	if len(s.Tasks) == 0 || len(s.Workers) == 0 {
		t.Error("generated scenario empty")
	}
}

// TestMethodTrainingContract walks the registry: for every method, Run and
// NewDispatcher both fail until exactly the training its row declares
// (NeedsDemand, NeedsValue) has happened, and both succeed from then on.
func TestMethodTrainingContract(t *testing.T) {
	s := smallScenario()
	for _, m := range Methods() {
		t.Run(string(m), func(t *testing.T) {
			fw := frameworkFor(s)
			check := func(stage string, wantErr bool) {
				t.Helper()
				_, runErr := fw.Run(m, s.Workers, s.Tasks, s.T0, s.T1)
				_, liveErr := fw.NewDispatcher(m, DispatchConfig{})
				if (runErr != nil) != wantErr || (liveErr != nil) != wantErr {
					t.Fatalf("%s: Run error %v, NewDispatcher error %v; want failure = %v", stage, runErr, liveErr, wantErr)
				}
			}
			check("untrained", m.NeedsDemand() || m.NeedsValue())
			if m.NeedsDemand() {
				if err := fw.TrainDemand(s.History); err != nil {
					t.Fatal(err)
				}
				check("after TrainDemand", m.NeedsValue())
			}
			if m.NeedsValue() {
				if err := fw.TrainValue(s.Workers, s.Tasks, 3); err != nil {
					t.Fatal(err)
				}
				check("after TrainValue", false)
			}
		})
	}
}

func TestNewDispatcherMatchesRun(t *testing.T) {
	s := smallScenario()
	for _, m := range Methods() {
		t.Run(string(m), func(t *testing.T) {
			fw := frameworkFor(s)
			if m.NeedsDemand() {
				if err := fw.TrainDemand(s.History); err != nil {
					t.Fatal(err)
				}
			}
			if m.NeedsValue() {
				if err := fw.TrainValue(s.Workers, s.Tasks, 3); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := fw.Run(m, s.Workers, s.Tasks, s.T0, s.T1)
			if err != nil {
				t.Fatal(err)
			}
			d, err := fw.NewDispatcher(m, DispatchConfig{Now: s.T0})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range s.Workers {
				d.Ingest(WorkerOnlineEvent(w))
			}
			for _, task := range s.Tasks {
				d.Ingest(TaskSubmitEvent(task))
			}
			d.Advance(s.T1)
			got := d.Snapshot()
			if got.Assigned != ref.Assigned || got.Expired != ref.Expired {
				t.Fatalf("dispatcher assigned/expired = %d/%d, Run = %d/%d",
					got.Assigned, got.Expired, ref.Assigned, ref.Expired)
			}
		})
	}
}

func TestNewDispatcherValidation(t *testing.T) {
	fw := New(Config{}) // no region
	if _, err := fw.NewDispatcher(MethodDTA, DispatchConfig{Shards: 4}); err == nil {
		t.Error("multi-shard dispatcher without region should fail")
	}
	if _, err := fw.NewDispatcher(MethodDATAWA, DispatchConfig{}); err == nil {
		t.Error("DATA-WA dispatcher without training should fail")
	}
	if _, err := fw.NewDispatcher(Method("bogus"), DispatchConfig{}); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestNewDispatcherSharded(t *testing.T) {
	s := smallScenario()
	fw := New(Config{
		Region:   s.Config.Region,
		GridRows: s.Config.GridRows, GridCols: s.Config.GridCols,
		Step: 2, Seed: 7,
	})
	d, err := fw.NewDispatcher(MethodGreedy, DispatchConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workers {
		d.Ingest(WorkerOnlineEvent(w))
	}
	for _, task := range s.Tasks {
		d.Ingest(TaskSubmitEvent(task))
	}
	d.Advance(s.T1)
	m := d.Snapshot()
	if len(m.Shards) != 4 {
		t.Fatalf("snapshot reports %d shards, want 4", len(m.Shards))
	}
	if m.Assigned == 0 {
		t.Error("sharded dispatcher assigned nothing")
	}
	if m.Unroutable != 0 {
		t.Errorf("%d unroutable events", m.Unroutable)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SpeedKmPerSec <= 0 || c.DeltaT != 5 || c.K != 3 || c.Threshold != 0.85 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c = Config{DeltaT: 9, K: 4}.withDefaults()
	if c.DeltaT != 9 || c.K != 4 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
}
