package parafac2

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// Residual analysis: PARAFAC2's classical applications include fault
// detection (Wise et al. 2001, cited by the paper) and phenotype discovery,
// where the per-slice reconstruction error of a fitted model flags slices
// that do not follow the shared structure.

// SliceResiduals returns the relative reconstruction error of every slice:
// ‖X_k − X̂_k‖_F / ‖X_k‖_F (0 for an all-zero slice), from the per-slice
// distances FitnessWith sums. Slices that the shared factors cannot explain
// (faults, outliers, regime changes) show elevated residuals.
func SliceResiduals(t *tensor.Irregular, r *Result) []float64 {
	out := sliceDists(t, r.fq, r.H, r.V, r.S, nil)
	for k, xk := range t.Slices {
		if n := xk.FrobNorm(); n != 0 {
			out[k] /= n
		} else {
			out[k] = 0
		}
	}
	return out
}

// Anomaly flags one slice identified by residual analysis.
type Anomaly struct {
	Slice    int
	Residual float64
	// Score is the robust z-score of the residual: distance from the
	// median in units of 1.4826·MAD. Scores above ~3.5 are conventionally
	// anomalous.
	Score float64
}

// DetectAnomalies ranks slices by how far their residual deviates from the
// cohort, using the median/MAD robust z-score, and returns those whose
// score exceeds threshold (descending by score).
func DetectAnomalies(t *tensor.Irregular, r *Result, threshold float64) []Anomaly {
	res := SliceResiduals(t, r)
	med := median(res)
	dev := make([]float64, len(res))
	for i, v := range res {
		dev[i] = math.Abs(v - med)
	}
	mad := median(dev)
	scale := 1.4826 * mad
	if scale == 0 {
		scale = 1e-12
	}
	var out []Anomaly
	for k, v := range res {
		score := (v - med) / scale
		if score > threshold {
			out = append(out, Anomaly{Slice: k, Residual: v, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
