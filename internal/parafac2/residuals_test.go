package parafac2

import (
	"context"
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestSliceResidualsExactData(t *testing.T) {
	g := rng.New(40)
	ten := synthPARAFAC2(g, []int{30, 40, 35}, 12, 3, 0)
	res, err := DPar2Ctx(context.Background(), ten, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// ALS converges slowly through swamps; near-exact (not bitwise) fit is
	// the realistic expectation at a bounded iteration budget.
	for k, r := range SliceResiduals(ten, res) {
		if r > 0.08 {
			t.Fatalf("slice %d residual %v on exact data", k, r)
		}
	}
}

func TestDetectAnomaliesFindsInjectedFault(t *testing.T) {
	// 11 slices follow the shared PARAFAC2 structure; one is replaced by
	// pure noise. Residual analysis must single it out.
	g := rng.New(41)
	rows := irregRows(g, 12, 30, 60)
	ten := synthPARAFAC2(g, rows, 15, 3, 0.02)
	faulty := 7
	ten.Slices[faulty] = mat.Gaussian(g, rows[faulty], 15).Scale(
		ten.Slices[faulty].FrobNorm() / math.Sqrt(float64(rows[faulty]*15)))

	cfg := smallConfig(3)
	cfg.MaxIters = 40
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anomalies := DetectAnomalies(ten, res, 3.5)
	if len(anomalies) == 0 {
		t.Fatal("injected fault not detected")
	}
	if anomalies[0].Slice != faulty {
		t.Fatalf("top anomaly is slice %d, want %d (all: %+v)", anomalies[0].Slice, faulty, anomalies)
	}
}

func TestDetectAnomaliesCleanData(t *testing.T) {
	g := rng.New(42)
	ten := synthPARAFAC2(g, irregRows(g, 10, 30, 60), 12, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 40
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Homogeneous noise: nothing should stand out at a high threshold.
	if anomalies := DetectAnomalies(ten, res, 10); len(anomalies) != 0 {
		t.Fatalf("false positives on clean data: %+v", anomalies)
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median of empty")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestSliceResidualsZeroSlice(t *testing.T) {
	g := rng.New(43)
	ten := synthPARAFAC2(g, []int{20, 25}, 8, 2, 0)
	slices := append(append([]*mat.Dense{}, ten.Slices...), mat.New(10, 8))
	mixed := tensor.MustIrregular(slices)
	cfg := smallConfig(2)
	cfg.MaxIters = 10
	res, err := DPar2Ctx(context.Background(), mixed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := SliceResiduals(mixed, res)
	if rs[2] != 0 {
		t.Fatalf("zero slice residual should be defined as 0, got %v", rs[2])
	}
}

// TestQFormsAccessorsResidualsAndFitness pins, bit for bit, what the
// accessors, SliceResiduals and FitnessWith compute for both Q forms on one
// fixed tensor. A dense (baseline) result serves its stored Q_k and the plain
// dense products; for both forms each residual is the distance to
// ReconstructSlice over ‖X_k‖, and the fitness is 1 − Σ_k of those distances
// squared (summed in slice order) over ‖X‖², at any pool width.
func TestQFormsAccessorsResidualsAndFitness(t *testing.T) {
	g := rng.New(53)
	ten := synthPARAFAC2(g, []int{40, 55, 30, 62}, 14, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 12
	ctx := context.Background()
	dense, err := ALSCtx(ctx, ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	factored, err := DPar2Ctx(ctx, ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Factored() || !factored.Factored() {
		t.Fatalf("Factored: ALS %v, DPar2 %v", dense.Factored(), factored.Factored())
	}

	for k := 0; k < dense.K(); k++ {
		q := dense.Qk(k)
		if dense.Qk(k) != q {
			t.Fatalf("dense Qk(%d) is not the stored matrix", k)
		}
		lo, hi := q.Rows/4, q.Rows-3
		if !dense.UkRows(k, lo, hi).EqualApprox(q.RowView(lo, hi).Mul(dense.H), 0) {
			t.Fatalf("dense UkRows(%d) differs from Q_k[lo:hi]·H", k)
		}
		want := q.Mul(dense.H.ScaleColumns(dense.S[k])).MulT(dense.V)
		if !dense.ReconstructSlice(k).EqualApprox(want, 0) {
			t.Fatalf("dense ReconstructSlice(%d) differs from Q_k·H S_k·Vᵀ", k)
		}
	}

	pool := compute.NewPool(2)
	defer pool.Close()
	for _, res := range []*Result{dense, factored} {
		var errSum float64
		residuals := SliceResiduals(ten, res)
		for k, xk := range ten.Slices {
			d := xk.FrobDist(res.ReconstructSlice(k))
			if want := d / xk.FrobNorm(); residuals[k] != want {
				t.Fatalf("factored=%v: SliceResiduals[%d] = %v, want %v", res.Factored(), k, residuals[k], want)
			}
			errSum += float64(d * d)
		}
		want := 1 - errSum/ten.Norm2()
		for _, p := range []*compute.Pool{nil, pool} {
			if got := FitnessWith(ten, res, p); got != want {
				t.Fatalf("factored=%v: FitnessWith = %v, want %v", res.Factored(), got, want)
			}
		}
	}
}
