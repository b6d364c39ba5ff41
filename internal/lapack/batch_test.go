package lapack

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// widthRunner implements mat.Runner with a fixed width, running chunks
// sequentially — exercises FactorBatch's partitioned path deterministically.
type widthRunner struct{ width int }

func (r widthRunner) Workers() int { return r.width }

func (r widthRunner) ParallelRanges(n int, fn func(lo, hi int)) {
	w := r.width
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// batchProblems builds a heterogeneous batch: the R×R ALS shapes for
// R ∈ {1, 2, 3, 10}, a tall problem, a rank-deficient one (duplicated
// columns), and a zero matrix.
func batchProblems(g *rng.RNG) []*mat.Dense {
	as := []*mat.Dense{
		mat.Gaussian(g, 1, 1),
		mat.Gaussian(g, 2, 2),
		mat.Gaussian(g, 3, 3),
		mat.Gaussian(g, 10, 10),
		mat.Gaussian(g, 20, 6),
	}
	def := mat.Gaussian(g, 8, 4)
	def.SetCol(3, def.Col(0)) // rank-deficient: column 3 duplicates column 0
	as = append(as, def, mat.New(5, 3))
	for i := 0; i < 6; i++ { // several same-shape problems, like the K slices
		as = append(as, mat.Gaussian(g, 10, 10))
	}
	return as
}

func newBatchOutputs(as []*mat.Dense) (us []*mat.Dense, ss [][]float64, vs []*mat.Dense) {
	for _, a := range as {
		us = append(us, mat.New(a.Rows, a.Cols))
		ss = append(ss, make([]float64, a.Cols))
		vs = append(vs, mat.New(a.Cols, a.Cols))
	}
	return us, ss, vs
}

// TestFactorBatchMatchesSequentialFactorInto pins FactorBatch's equivalence
// contract: for every problem in the batch the outputs are bit-identical to
// a sequential FactorInto call — U, S and V exactly, not up to sign, because
// batch and sequential run the identical rotation sequence per problem. The
// check runs for no Runner and for several widths (including more workers
// than problems).
func TestFactorBatchMatchesSequentialFactorInto(t *testing.T) {
	g := rng.New(51)
	as := batchProblems(g)

	wantU, wantS, wantV := newBatchOutputs(as)
	var seq Workspace
	for p, a := range as {
		FactorInto(a, wantU[p], wantS[p], wantV[p], &seq)
	}

	runners := map[string]mat.Runner{
		"nil": nil, "w1": widthRunner{1}, "w2": widthRunner{2},
		"w3": widthRunner{3}, "w64": widthRunner{64},
	}
	for name, rn := range runners {
		gotU, gotS, gotV := newBatchOutputs(as)
		var ws BatchWorkspace
		FactorBatch(as, gotU, gotS, gotV, rn, &ws)
		for p := range as {
			for i, v := range wantS[p] {
				if gotS[p][i] != v {
					t.Fatalf("%s: problem %d singular value %d: batch %v != sequential %v", name, p, i, gotS[p][i], v)
				}
			}
			if !gotU[p].EqualApprox(wantU[p], 0) {
				t.Fatalf("%s: problem %d U differs from sequential FactorInto", name, p)
			}
			if !gotV[p].EqualApprox(wantV[p], 0) {
				t.Fatalf("%s: problem %d V differs from sequential FactorInto", name, p)
			}
		}
	}
}

// TestFactorBatchReconstructs sanity-checks the decomposition itself on the
// heterogeneous batch (orthonormal factors, descending spectrum, A ≈ UΣVᵀ).
func TestFactorBatchReconstructs(t *testing.T) {
	g := rng.New(52)
	as := batchProblems(g)
	us, ss, vs := newBatchOutputs(as)
	FactorBatch(as, us, ss, vs, widthRunner{4}, nil)
	for p, a := range as {
		if !us[p].IsOrthonormalCols(1e-10) {
			t.Fatalf("problem %d: U not orthonormal", p)
		}
		if !vs[p].IsOrthonormalCols(1e-10) {
			t.Fatalf("problem %d: V not orthonormal", p)
		}
		for i := 1; i < len(ss[p]); i++ {
			if ss[p][i] > ss[p][i-1] {
				t.Fatalf("problem %d: singular values not descending: %v", p, ss[p])
			}
		}
		rec := us[p].ScaleColumns(ss[p]).MulT(vs[p])
		if !rec.EqualApprox(a, 1e-9) {
			t.Fatalf("problem %d: UΣVᵀ does not reconstruct A", p)
		}
	}
}

// TestFactorBatchWorkspaceReuseAllocFree: with a warmed BatchWorkspace and
// preallocated outputs, steady-state FactorBatch calls allocate nothing —
// the guarantee dpar2Iterate's per-iteration sweep relies on.
func TestFactorBatchWorkspaceReuseAllocFree(t *testing.T) {
	g := rng.New(53)
	var as []*mat.Dense
	for i := 0; i < 8; i++ {
		as = append(as, mat.Gaussian(g, 10, 10))
	}
	us, ss, vs := newBatchOutputs(as)
	var ws BatchWorkspace
	FactorBatch(as, us, ss, vs, nil, &ws) // warm the slab
	allocs := testing.AllocsPerRun(20, func() {
		FactorBatch(as, us, ss, vs, nil, &ws)
	})
	if allocs != 0 {
		t.Fatalf("warmed FactorBatch allocates %.1f objects per call, want 0", allocs)
	}
}

// TestFactorBatchShapePanics: the batch entry point keeps FactorInto's
// shape contract.
func TestFactorBatchShapePanics(t *testing.T) {
	g := rng.New(54)
	a := mat.Gaussian(g, 3, 3)
	u, s, v := mat.New(3, 3), make([]float64, 3), mat.New(3, 3)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		FactorBatch([]*mat.Dense{a}, nil, [][]float64{s}, []*mat.Dense{v}, nil, nil)
	})
	mustPanic("wide problem", func() {
		wide := mat.Gaussian(g, 2, 3)
		FactorBatch([]*mat.Dense{wide}, []*mat.Dense{mat.New(2, 3)}, [][]float64{s}, []*mat.Dense{v}, nil, nil)
	})
	mustPanic("bad output shape", func() {
		FactorBatch([]*mat.Dense{a}, []*mat.Dense{mat.New(2, 2)}, [][]float64{s}, []*mat.Dense{v}, nil, nil)
	})
	// Empty batch is a no-op, not a panic.
	FactorBatch(nil, nil, nil, nil, nil, nil)
	_ = u
}

// TestFactorWSMatchesFactor: the workspace-threading variants are pure
// plumbing — same bits as the pool-backed entry points.
func TestFactorWSMatchesFactor(t *testing.T) {
	g := rng.New(55)
	for _, sh := range [][2]int{{6, 6}, {40, 6}, {6, 40}, {18, 10}} {
		a := mat.Gaussian(g, sh[0], sh[1])
		var ws Workspace
		got := FactorWS(a, nil, &ws)
		want := Factor(a)
		for i, v := range want.S {
			if got.S[i] != v {
				t.Fatalf("%dx%d: FactorWS singular values differ from Factor", sh[0], sh[1])
			}
		}
		if !got.U.EqualApprox(want.U, 0) || !got.V.EqualApprox(want.V, 0) {
			t.Fatalf("%dx%d: FactorWS factors differ from Factor", sh[0], sh[1])
		}
		gt := TruncatedWS(a, 4, nil, &ws)
		wt := Truncated(a, 4)
		if !gt.U.EqualApprox(wt.U, 0) || !gt.V.EqualApprox(wt.V, 0) {
			t.Fatalf("%dx%d: TruncatedWS factors differ from Truncated", sh[0], sh[1])
		}
	}
}

// BenchmarkFactorBatchVsSequential measures the fused batched sweep on K
// rank-sized problems against K sequential FactorInto calls — the ALS
// hot-loop shape (R = 10). The smoke-guarded absolute-budget variant is
// BenchmarkFactorBatch in the root package.
func BenchmarkFactorBatchVsSequential(b *testing.B) {
	for _, k := range []int{8, 64} {
		g := rng.New(60)
		var as []*mat.Dense
		for i := 0; i < k; i++ {
			as = append(as, mat.Gaussian(g, 10, 10))
		}
		us, ss, vs := newBatchOutputs(as)
		b.Run(fmt.Sprintf("K%d/batch", k), func(b *testing.B) {
			var ws BatchWorkspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FactorBatch(as, us, ss, vs, nil, &ws)
			}
		})
		b.Run(fmt.Sprintf("K%d/sequential", k), func(b *testing.B) {
			var ws Workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := range as {
					FactorInto(as[p], us[p], ss[p], vs[p], &ws)
				}
			}
		})
	}
}
