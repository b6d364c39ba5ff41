// Package lapack implements the factorizations DPar2 depends on from
// scratch: Householder thin QR, one-sided Jacobi SVD (with QR pre-reduction
// for tall matrices), truncated SVD, and the Moore-Penrose pseudoinverse.
//
// The implementations favor numerical robustness and clarity over raw speed,
// but the inner loops are laid out for the cache: QR and Jacobi both work on
// column-major scratch so every Householder/rotation pass is contiguous, and
// the small per-iteration SVDs of the ALS hot loop have allocation-free
// entry points backed by reusable workspaces.
//
// # Allocation-free entry points
//
// FactorInto factors one problem into preallocated outputs; ws may be a
// caller-held *Workspace (zero value is ready) or nil to draw from an
// internal pool (counted by PoolDraws, so tests can assert zero steady-state
// churn). FactorWS and TruncatedWS thread a Workspace through the composite
// paths for callers — like the randomized-SVD sketch loops — that factor
// repeatedly on one worker.
//
// FactorBatch factors a whole batch of small problems in fused lockstep
// Jacobi sweeps over one BatchWorkspace slab: problems are partitioned
// across the Runner in a single parallel region, every sweep is one pass
// over a partition's cache-resident share, and converged problems drop out
// via per-problem masks. Parallelism is only ever across problems, so each
// problem's outputs are bit-identical to a sequential FactorInto call for
// every Runner width. This is the ALS hot-loop entry point: K rank-sized
// SVDs per iteration cost one call, zero allocations in steady state.
//
// # Accumulation-order policy
//
// Unlike package mat (whose kernels must keep the naive per-element
// accumulation order bit-for-bit), lapack permits reassociating serial
// reductions — dot4/sumsq4 partial sums, unrolled rotation passes — because
// every factorization runs serially within one problem: results differ from
// the textbook loop only in the last ulp, and remain deterministic
// run-to-run and independent of caller thread counts. Any such reordering
// must keep that thread-count independence and be called out on the
// function it touches.
package lapack

import (
	"math"

	"repro/internal/mat"
)

// QR holds a thin QR factorization A = Q R with Q m-by-n column-orthonormal
// and R n-by-n upper triangular (for m >= n).
type QR struct {
	Q *mat.Dense
	R *mat.Dense
}

// QRFactor computes the thin QR factorization of a (m-by-n, m >= n) using
// Householder reflections. a is not modified.
//
// The factorization works on a column-major copy so the reflector
// construction and application loops stream contiguous memory. The reflector
// dots and column norms accumulate with four partial sums (see dot4): the
// operation count matches the textbook formulation but the reduction order
// differs in the last ulp. The result is deterministic — QRFactor is serial,
// so it is bit-identical run to run and across caller thread counts.
func QRFactor(a *mat.Dense) QR {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("lapack: QRFactor requires rows >= cols")
	}
	// Column-major working copy; column k becomes R's column in its first k
	// entries while the reflector tail is stored below (LAPACK style).
	buf := make([]float64, m*n)
	w := make([][]float64, n)
	for j := range w {
		w[j] = buf[j*m : (j+1)*m]
	}
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			w[j][i] = v
		}
	}
	betas := make([]float64, n)

	for k := 0; k < n; k++ {
		ck := w[k]
		// Build the Householder vector for column k below row k.
		normx := math.Sqrt(sumsq4(ck[k:]))
		if normx == 0 {
			betas[k] = 0
			continue
		}
		alpha := ck[k]
		s := normx
		if alpha > 0 {
			s = -normx
		}
		// v = x - s*e1, normalized so v[0] = 1.
		v0 := alpha - s
		betas[k] = -v0 / s // beta = 2 / (vᵀv) with v[0]=1 scaling works out to this
		if v0 != 0 {
			inv := 1 / v0
			for i := k + 1; i < m; i++ {
				ck[i] *= inv
			}
		}
		ck[k] = s

		// Apply the reflector to the remaining columns:
		// A := (I - beta v vᵀ) A for columns k+1..n-1.
		beta := betas[k]
		if beta == 0 {
			continue
		}
		tail := ck[k+1 : m]
		for j := k + 1; j < n; j++ {
			cj := w[j]
			dot := cj[k] + dot4(tail, cj[k+1:m])
			dot *= beta
			cj[k] -= dot
			axpy(dot, tail, cj[k+1:m])
		}
	}

	// Extract R from the upper triangles of the columns.
	r := mat.New(n, n)
	for j := 0; j < n; j++ {
		cj := w[j]
		for i := 0; i <= j; i++ {
			r.Data[i*n+j] = cj[i]
		}
	}

	// Form thin Q by applying the reflectors to the first n columns of I,
	// in reverse order, again in column-major scratch. Reflector k only
	// touches rows ≥ k, so on the identity column e_j every reflector with
	// k > j has an exactly zero dot and is a no-op: column j needs only
	// reflectors k = j..0. Iterating columns outermost and skipping that
	// zero triangle halves the formation work without changing a single
	// rounding (the skipped applications subtract exact zeros).
	qbuf := make([]float64, m*n)
	qc := make([][]float64, n)
	for j := range qc {
		qc[j] = qbuf[j*m : (j+1)*m]
		qc[j][j] = 1
	}
	for j := 0; j < n; j++ {
		cj := qc[j]
		for k := j; k >= 0; k-- {
			beta := betas[k]
			if beta == 0 {
				continue
			}
			ck := w[k]
			tail := ck[k+1 : m]
			dot := cj[k] + dot4(tail, cj[k+1:m])
			dot *= beta
			cj[k] -= dot
			axpy(dot, tail, cj[k+1:m])
		}
	}
	q := mat.New(m, n)
	for i := 0; i < m; i++ {
		row := q.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] = qc[j][i]
		}
	}
	return QR{Q: q, R: r}
}
