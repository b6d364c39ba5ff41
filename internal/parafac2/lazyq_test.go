package parafac2

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestLazyQMatchesEagerAcrossPoolWidths: the lazy accessors must reproduce
// the old eager materialization bit for bit — Qk is exactly (A_k Z_k) P_kᵀ,
// Uk and ReconstructSlice build on it — and stay bit-identical across pool
// widths (the repository-wide determinism contract).
func TestLazyQMatchesEagerAcrossPoolWidths(t *testing.T) {
	g := rng.New(51)
	ten := synthPARAFAC2(g, []int{40, 55, 30, 62}, 14, 3, 0.02)
	cfg := smallConfig(3)
	cfg.MaxIters = 15
	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ref *Result
	for _, th := range []int{1, 4} {
		c := cfg
		c.Threads = th
		res, err := DPar2FromCompressedCtx(context.Background(), comp, c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Factored() {
			t.Fatal("DPar2 result is not factored")
		}
		a, z, p, ok := res.FactoredQ()
		if !ok || len(a) != ten.K() {
			t.Fatalf("FactoredQ ok=%v len=%d", ok, len(a))
		}
		for k := 0; k < res.K(); k++ {
			eager := a[k].Mul(z[k]).MulT(p[k]) // the PR-3 eager loop, verbatim
			if !res.Qk(k).EqualApprox(eager, 0) {
				t.Fatalf("lazy Qk(%d) not bit-identical to eager materialization", k)
			}
			if !res.Uk(k).EqualApprox(eager.Mul(res.H), 0) {
				t.Fatalf("lazy Uk(%d) not bit-identical to eager Q_k H", k)
			}
			// ReconstructSlice folds through the small factors
			// (different op order), so it matches to round-off.
			wantRec := eager.Mul(res.H.ScaleColumns(res.S[k])).MulT(res.V)
			if !res.ReconstructSlice(k).EqualApprox(wantRec, 1e-9) {
				t.Fatalf("lazy ReconstructSlice(%d) diverges from eager reconstruction", k)
			}
			// UkRows folds through the small factors first (different op
			// order), so it matches to round-off rather than bitwise.
			lo, hi := res.SliceRows(k)/3, res.SliceRows(k)
			win := res.UkRows(k, lo, hi)
			if !win.EqualApprox(res.Uk(k).RowBlock(lo, hi), 1e-10) {
				t.Fatalf("UkRows(%d) window diverges from Uk rows", k)
			}
		}
		if ref == nil {
			ref = res
		} else {
			for k := 0; k < res.K(); k++ {
				if !res.Qk(k).EqualApprox(ref.Qk(k), 0) {
					t.Fatalf("Qk(%d) differs across pool widths", k)
				}
			}
		}
	}

	// Materialize caches the same bits and flips the result to dense.
	res := ref.Materialize()
	if res.Factored() {
		t.Fatal("Materialize left the result factored")
	}
	a, z, p, _ := res.FactoredQ()
	for k := 0; k < res.K(); k++ {
		if !res.Qk(k).EqualApprox(a[k].Mul(z[k]).MulT(p[k]), 0) {
			t.Fatalf("materialized Qk(%d) not bit-identical", k)
		}
	}
}

// TestFitnessAgreesLazyVsMaterialized: the factored fitness path (no dense
// Q_k anywhere) and the dense path must agree to round-off, and the
// kind-tagging must say which space each fitness was measured in.
func TestFitnessAgreesLazyVsMaterialized(t *testing.T) {
	g := rng.New(52)
	ten := synthPARAFAC2(g, []int{50, 35, 44}, 12, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 20
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessKind != FitnessTrue {
		t.Fatalf("DPar2 FitnessKind = %v, want true", res.FitnessKind)
	}
	lazy := Fitness(ten, res)
	dense := Fitness(ten, res.Materialize())
	if d := lazy - dense; d > 1e-12 || d < -1e-12 {
		t.Fatalf("factored fitness %v vs dense fitness %v", lazy, dense)
	}

	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := DPar2FromCompressedCtx(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cres.FitnessKind != FitnessCompressed {
		t.Fatalf("DPar2FromCompressedCtx FitnessKind = %v, want compressed", cres.FitnessKind)
	}
}

// TestAbsorbPerformsNoPerOldSliceWork: the K-independence regression test.
// Every O(I_k) materialization from the factored form funnels through the
// qMaterializeHook observation point; a streaming absorb must trigger none of
// them — at K=8 and K=64 alike — because the whole path (append, rotation,
// compressed-space refresh) runs on factored state.
func TestAbsorbPerformsNoPerOldSliceWork(t *testing.T) {
	for _, k := range []int{8, 64} {
		g := rng.New(uint64(60 + k))
		rows := make([]int, k+2)
		for i := range rows {
			rows[i] = 25 + 7*(i%5)
		}
		full := synthPARAFAC2(g, rows, 12, 3, 0.02)
		cfg := smallConfig(3)
		cfg.MaxIters = 20

		st, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:k]), cfg)
		if err != nil {
			t.Fatal(err)
		}

		var count int64
		qMaterializeHook = func(int, int) { atomic.AddInt64(&count, 1) }
		err = st.AbsorbCtx(context.Background(), full.Slices[k:])
		qMaterializeHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(&count); got != 0 {
			t.Fatalf("K=%d: absorb materialized %d slices from the factored form, want 0", k, got)
		}

		// Sanity: the hook does observe real materializations.
		qMaterializeHook = func(int, int) { atomic.AddInt64(&count, 1) }
		st.Result().Materialize()
		qMaterializeHook = nil
		if got := atomic.LoadInt64(&count); got != int64(st.K()) {
			t.Fatalf("K=%d: Materialize observed %d materializations, want %d", k, got, st.K())
		}
	}
}
