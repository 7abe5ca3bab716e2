package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrecisionRecallBasics(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.3, 0.1}
	labels := []bool{true, false, true, false}
	pr := PrecisionRecall(scores, labels, 0.5)
	// Predicted positive: 0.9 (TP), 0.8 (FP). Missed: 0.3 (FN).
	if pr.TP != 1 || pr.FP != 1 || pr.FN != 1 {
		t.Fatalf("TP/FP/FN = %d/%d/%d", pr.TP, pr.FP, pr.FN)
	}
	if pr.Precision != 0.5 {
		t.Errorf("precision = %v", pr.Precision)
	}
	if pr.Recall != 0.5 {
		t.Errorf("recall = %v", pr.Recall)
	}
}

func TestPrecisionNoPredictions(t *testing.T) {
	pr := PrecisionRecall([]float64{0.1, 0.2}, []bool{true, true}, 0.9)
	if pr.Precision != 1 {
		t.Errorf("precision with no predicted positives should be 1, got %v", pr.Precision)
	}
	if pr.Recall != 0 {
		t.Errorf("recall should be 0, got %v", pr.Recall)
	}
}

func TestRecallNoPositives(t *testing.T) {
	pr := PrecisionRecall([]float64{0.99}, []bool{false}, 0.5)
	if pr.Recall != 1 {
		t.Errorf("recall with no actual positives should be 1, got %v", pr.Recall)
	}
}

func TestCurveShape(t *testing.T) {
	scores := []float64{0.2, 0.6, 0.8}
	labels := []bool{false, true, true}
	c := Curve(scores, labels)
	if len(c) != 101 {
		t.Fatalf("curve has %d points, want 101", len(c))
	}
	if c[0].Threshold != 0 || c[100].Threshold != 1 {
		t.Error("thresholds should span [0,1]")
	}
	// Recall is non-increasing as threshold rises.
	for i := 1; i < len(c); i++ {
		if c[i].Recall > c[i-1].Recall+1e-12 {
			t.Fatalf("recall increased with threshold at %d", i)
		}
	}
}

func TestCurvePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Curve([]float64{1}, []bool{true, false})
}

func TestAveragePrecisionPerfect(t *testing.T) {
	// Perfectly separated scores: AP should be ~1.
	scores := []float64{0.95, 0.9, 0.1, 0.05}
	labels := []bool{true, true, false, false}
	ap := AveragePrecision(scores, labels)
	if ap < 0.99 {
		t.Errorf("perfect classifier AP = %v, want ~1", ap)
	}
}

func TestAveragePrecisionInverted(t *testing.T) {
	// Anti-correlated scores should give low AP.
	scores := []float64{0.05, 0.1, 0.9, 0.95}
	labels := []bool{true, true, false, false}
	ap := AveragePrecision(scores, labels)
	if ap > 0.7 {
		t.Errorf("inverted classifier AP = %v, want low", ap)
	}
}

func TestAveragePrecisionRandomBaseline(t *testing.T) {
	// For random scores, AP approaches the positive prevalence.
	r := rand.New(rand.NewSource(1))
	n := 5000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		scores[i] = r.Float64()
		labels[i] = r.Float64() < 0.3
	}
	ap := AveragePrecision(scores, labels)
	if math.Abs(ap-0.3) > 0.08 {
		t.Errorf("random-scores AP = %v, want ≈ prevalence 0.3", ap)
	}
}

func TestAveragePrecisionEmpty(t *testing.T) {
	if got := AveragePrecision(nil, nil); got != 0 {
		t.Errorf("AP of empty = %v", got)
	}
}

func TestAveragePrecisionBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = r.Float64()
			labels[i] = r.Intn(2) == 0
		}
		ap := AveragePrecision(scores, labels)
		return ap >= 0 && ap <= 1 && !math.IsNaN(ap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAveragePrecisionMonotoneInQuality(t *testing.T) {
	// A sharper classifier should not score below a noisier one (on
	// average). Use matched label sets with different noise levels.
	r := rand.New(rand.NewSource(9))
	n := 2000
	labels := make([]bool, n)
	for i := range labels {
		labels[i] = r.Float64() < 0.4
	}
	mkScores := func(noise float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			base := 0.2
			if labels[i] {
				base = 0.8
			}
			s[i] = base + noise*(r.Float64()-0.5)
		}
		return s
	}
	clean := AveragePrecision(mkScores(0.2), labels)
	noisy := AveragePrecision(mkScores(1.6), labels)
	if clean <= noisy {
		t.Errorf("clean AP %v should beat noisy AP %v", clean, noisy)
	}
}
