package parafac2

import (
	"repro/internal/compute"
	"repro/internal/mat"
)

// Exported aliases of the iteration-kernel internals, used by the ablation
// benchmarks (bench_test.go) to time the Lemma 1-3 reorderings and the
// convergence-check variants in isolation. Production callers use DPar2.
//
// The threads parameter follows Config.Threads semantics (<= 1 means
// serial); each call builds a transient pool of that width.

// LemmaG1 computes G⁽¹⁾ = Y(1)(W ⊙ V) from the factored slices (Lemma 1).
func LemmaG1(tf []*mat.Dense, w *mat.Dense, e []float64, dtv *mat.Dense, threads int) *mat.Dense {
	pool := compute.NewPool(threads)
	defer pool.Close()
	out := mat.New(dtv.Cols, dtv.Cols)
	lemma1Into(out, tf, w, e, dtv, pool, compute.Shared())
	return out
}

// LemmaG2 computes G⁽²⁾ = Y(2)(W ⊙ H) from the factored slices (Lemma 2).
func LemmaG2(tf []*mat.Dense, w, d *mat.Dense, e []float64, h *mat.Dense, threads int) *mat.Dense {
	pool := compute.NewPool(threads)
	defer pool.Close()
	out := mat.New(d.Rows, h.Cols)
	lemma2Into(out, tf, w, d, e, h, pool, compute.Shared())
	return out
}

// LemmaG3 computes G⁽³⁾ = Y(3)(V ⊙ H) from the factored slices (Lemma 3).
func LemmaG3(tf []*mat.Dense, e []float64, dtv, h *mat.Dense, threads int) *mat.Dense {
	pool := compute.NewPool(threads)
	defer pool.Close()
	out := mat.New(len(tf), h.Cols)
	lemma3Into(out, tf, e, dtv, h, pool, compute.Shared())
	return out
}

// CompressedErrorGram2 evaluates the Section III-E convergence measure with
// the O(JR² + KR³) Gram-matrix formulation DPar2 uses internally.
func CompressedErrorGram2(tf []*mat.Dense, e []float64, dtv, v, h *mat.Dense, s [][]float64) float64 {
	return compressedError2(tf, e, dtv, v, h, s, compute.Shared())
}
