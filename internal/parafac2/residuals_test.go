package parafac2

import (
	"context"
	"math"
	"testing"

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
