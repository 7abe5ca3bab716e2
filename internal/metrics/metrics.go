// Package metrics implements the evaluation metrics of Section V-B.1:
// precision, recall, and Average Precision computed by sweeping the decision
// threshold over [0,1] in steps of 0.01 and integrating the area under the
// precision–recall curve, exactly as the paper describes.
package metrics

import "sort"

// PR is one precision/recall point at a given threshold.
type PR struct {
	Threshold  float64
	Precision  float64
	Recall     float64
	TP, FP, FN int
}

// PrecisionRecall returns the precision and recall of binary predictions
// (score ≥ threshold ⇒ positive) against binary labels.
// Precision of zero predicted positives is defined as 1 (the conventional
// limit at the top of the PR curve).
func PrecisionRecall(scores []float64, labels []bool, threshold float64) PR {
	var tp, fp, fn int
	for i, s := range scores {
		pred := s >= threshold
		switch {
		case pred && labels[i]:
			tp++
		case pred && !labels[i]:
			fp++
		case !pred && labels[i]:
			fn++
		}
	}
	pr := PR{Threshold: threshold, TP: tp, FP: fp, FN: fn}
	if tp+fp == 0 {
		pr.Precision = 1
	} else {
		pr.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn == 0 {
		pr.Recall = 1 // no positives: every threshold recalls all of them
	} else {
		pr.Recall = float64(tp) / float64(tp+fn)
	}
	return pr
}

// Curve returns the PR curve sampled at thresholds 0, 0.01, …, 1.00
// (101 points), matching the paper's evaluation protocol.
func Curve(scores []float64, labels []bool) []PR {
	if len(scores) != len(labels) {
		panic("metrics: scores and labels length mismatch")
	}
	out := make([]PR, 0, 101)
	for i := 0; i <= 100; i++ {
		out = append(out, PrecisionRecall(scores, labels, float64(i)/100))
	}
	return out
}

// AveragePrecision integrates the area under the precision–recall curve
// produced by Curve, using the trapezoid rule over recall. The result is in
// [0, 1]; it returns 0 when there are no examples.
func AveragePrecision(scores []float64, labels []bool) float64 {
	if len(scores) == 0 {
		return 0
	}
	curve := Curve(scores, labels)
	// Order points by increasing recall for integration. Thresholds
	// increasing means recall non-increasing, so reverse suffices, but sort
	// defensively to tolerate ties.
	sort.Slice(curve, func(i, j int) bool { return curve[i].Recall < curve[j].Recall })
	ap := 0.0
	for i := 1; i < len(curve); i++ {
		dr := curve[i].Recall - curve[i-1].Recall
		ap += dr * (curve[i].Precision + curve[i-1].Precision) / 2
	}
	// Add the initial rectangle from recall 0 to the first point.
	ap += curve[0].Recall * curve[0].Precision
	if ap < 0 {
		ap = 0
	}
	if ap > 1 {
		ap = 1
	}
	return ap
}
