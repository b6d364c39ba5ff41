package lapack

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// SVD holds a thin singular value decomposition A = U diag(S) Vᵀ with
// U m-by-r, S descending, V n-by-r where r = min(m, n) (or the truncation
// rank for truncated variants).
type SVD struct {
	U *mat.Dense
	S []float64
	V *mat.Dense
}

// jacobiSweepTol is the relative off-diagonal tolerance for one-sided Jacobi.
const jacobiSweepTol = 1e-12

// maxJacobiSweeps bounds iteration; Jacobi converges quadratically, so 30 is
// far more than needed for float64.
const maxJacobiSweeps = 30

// Workspace holds the scratch buffers for repeated small SVDs so the ALS
// hot loop (one R×R SVD per slice per iteration) allocates nothing in steady
// state. A Workspace is not safe for concurrent use; FactorInto with a nil
// workspace draws one from an internal pool, which is the common pattern for
// parallel callers.
type Workspace struct {
	buf   []float64   // backing for the working columns and rotation columns
	wcols [][]float64 // n working columns of length m
	vcols [][]float64 // n rotation columns of length n
	perm  []int
	sigma []float64
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// poolDraws counts FactorInto calls that had to draw a pooled workspace
// because the caller passed nil. Hot loops are expected to hold their own
// workspace (or use FactorBatch); the parafac2 alloc tests assert this
// counter stays flat across steady-state iterations.
var poolDraws atomic.Uint64

// PoolDraws reports the cumulative number of pooled-workspace draws by
// FactorInto callers that passed a nil workspace. Monotonic; meant for
// before/after deltas in tests, not as a precise concurrency-safe gauge of
// anything else.
func PoolDraws() uint64 { return poolDraws.Load() }

// reserve sizes the workspace for an m×n Jacobi problem.
func (ws *Workspace) reserve(m, n int) {
	need := n * (m + n)
	if cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	ws.buf = ws.buf[:need]
	if cap(ws.wcols) < n {
		ws.wcols = make([][]float64, n)
		ws.vcols = make([][]float64, n)
	}
	ws.wcols = ws.wcols[:n]
	ws.vcols = ws.vcols[:n]
	for j := 0; j < n; j++ {
		ws.wcols[j] = ws.buf[j*m : (j+1)*m]
		ws.vcols[j] = ws.buf[n*m+j*n : n*m+(j+1)*n]
	}
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
		ws.sigma = make([]float64, n)
	}
	ws.perm = ws.perm[:n]
	ws.sigma = ws.sigma[:n]
}

// Factor computes the thin SVD of a. It does not modify a.
//
// Strategy: one-sided Jacobi orthogonalizes the columns of a working copy W,
// accumulating the rotations into V; on convergence the column norms of W are
// the singular values and the normalized columns form U. For tall matrices
// (m > n) a QR pre-reduction shrinks the Jacobi problem to n-by-n; for wide
// matrices we factor the transpose and swap U and V.
func Factor(a *mat.Dense) SVD { return FactorWS(a, nil, nil) }

// FactorWS is Factor with the large multiplies of the tall path run on rn
// (nil means serial; the result is identical for any Runner width) and an
// explicit Jacobi workspace. Callers that factor repeatedly (the
// randomized-SVD sketch loops) hold one Workspace per worker and avoid the
// package pool entirely; ws may be nil, in which case the Jacobi stage draws
// from the pool (counted by PoolDraws).
func FactorWS(a *mat.Dense, rn mat.Runner, ws *Workspace) SVD {
	m, n := a.Rows, a.Cols
	if m < n {
		s := FactorWS(a.T(), rn, ws)
		return SVD{U: s.V, S: s.S, V: s.U}
	}
	if m > n*2 || m > n+32 {
		// Tall: A = Q R, SVD(R) = Ur S Vᵀ, so A = (Q Ur) S Vᵀ.
		qr := QRFactor(a)
		inner := jacobiSVD(qr.R, ws)
		u := qr.Q.MulInto(mat.New(m, n), inner.U, rn)
		return SVD{U: u, S: inner.S, V: inner.V}
	}
	return jacobiSVD(a, ws)
}

// FactorInto computes the thin SVD of a (which must satisfy a.Rows >=
// a.Cols) directly into the preallocated outputs: u is a.Rows×a.Cols, s has
// length a.Cols, v is a.Cols×a.Cols. ws may be nil, in which case a pooled
// workspace is used. a is not modified. In steady state the call performs no
// allocations — this is the entry point for the per-slice R×R SVDs of the
// ALS iteration.
func FactorInto(a *mat.Dense, u *mat.Dense, s []float64, v *mat.Dense, ws *Workspace) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("lapack: FactorInto requires rows >= cols")
	}
	if u.Rows != m || u.Cols != n || len(s) != n || v.Rows != n || v.Cols != n {
		panic("lapack: FactorInto output shape mismatch")
	}
	if ws == nil {
		poolDraws.Add(1)
		pooled := workspacePool.Get().(*Workspace)
		defer workspacePool.Put(pooled)
		ws = pooled
	}
	jacobiInto(a, u, s, v, ws)
}

// jacobiSVD runs one-sided Jacobi on a (m >= n required by callers),
// allocating fresh outputs; ws may be nil (pooled).
func jacobiSVD(a *mat.Dense, ws *Workspace) SVD {
	u := mat.New(a.Rows, a.Cols)
	s := make([]float64, a.Cols)
	v := mat.New(a.Cols, a.Cols)
	FactorInto(a, u, s, v, ws)
	return SVD{U: u, S: s, V: v}
}

// jacobiInto is the one-sided Jacobi core: orthogonalize the columns of a
// working copy of a, accumulate rotations, and write U, S, V into the
// provided outputs. The load / sweep / extract stages are shared with
// FactorBatch (batch.go), so a batched problem goes through exactly the
// floating-point operations — and produces exactly the bits — of the
// equivalent sequence of FactorInto calls.
func jacobiInto(a *mat.Dense, u *mat.Dense, sOut []float64, vOut *mat.Dense, ws *Workspace) {
	m, n := a.Rows, a.Cols
	ws.reserve(m, n)
	w := ws.wcols
	v := ws.vcols
	jacobiLoad(a, w, v)
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if !jacobiSweep(w, v, m, n) {
			break
		}
	}
	jacobiExtract(u, sOut, vOut, w, v, ws.perm, ws.sigma, m, n)
}

// jacobiLoad copies a's columns into the working columns w and resets the
// rotation columns v to the identity.
func jacobiLoad(a *mat.Dense, w, v [][]float64) {
	m, n := a.Rows, a.Cols
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, val := range row {
			w[j][i] = val
		}
	}
	for j := 0; j < n; j++ {
		vc := v[j]
		for i := range vc {
			vc[i] = 0
		}
		vc[j] = 1
	}
}

// jacobiSweep runs one full cyclic sweep of one-sided Jacobi rotations over
// the column pairs of w (m×n, stored as n columns), accumulating rotations
// into v. Reports whether any rotation fired; a false return means the
// columns are numerically orthogonal and the problem has converged.
func jacobiSweep(w, v [][]float64, m, n int) bool {
	rotated := false
	for p := 0; p < n-1; p++ {
		for q := p + 1; q < n; q++ {
			wp, wq := w[p], w[q]
			// Fused pass for the three column moments, four elements per
			// step with two partial chains per moment fed alternately: the
			// six chains hide multiply-then-add latency. Each moment's
			// partials combine in a fixed order, so the sweep is
			// deterministic (serial per problem).
			var a0, a1, b0, b1, g0, g1 float64
			i := 0
			for ; i+3 < m; i += 4 {
				wp0, wq0 := wp[i], wq[i]
				wp1, wq1 := wp[i+1], wq[i+1]
				a0 += wp0 * wp0
				a1 += wp1 * wp1
				b0 += wq0 * wq0
				b1 += wq1 * wq1
				g0 += wp0 * wq0
				g1 += wp1 * wq1
				wp2, wq2 := wp[i+2], wq[i+2]
				wp3, wq3 := wp[i+3], wq[i+3]
				a0 += wp2 * wp2
				a1 += wp3 * wp3
				b0 += wq2 * wq2
				b1 += wq3 * wq3
				g0 += wp2 * wq2
				g1 += wp3 * wq3
			}
			for ; i < m; i++ {
				wp0, wq0 := wp[i], wq[i]
				a0 += wp0 * wp0
				b0 += wq0 * wq0
				g0 += wp0 * wq0
			}
			alpha, beta, gamma := a0+a1, b0+b1, g0+g1
			// Standard one-sided Jacobi convergence criterion:
			// skip the rotation when the columns are already
			// numerically orthogonal relative to their norms.
			if math.Abs(gamma) <= jacobiSweepTol*math.Sqrt(alpha*beta) || gamma == 0 {
				continue
			}
			rotated = true
			zeta := (beta - alpha) / (2 * gamma)
			var t float64
			if zeta > 0 {
				t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
			} else {
				t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
			}
			c := 1 / math.Sqrt(1+t*t)
			s := c * t
			// Rotation passes, two elements per step (independent
			// iterations; element-wise arithmetic unchanged).
			i = 0
			for ; i+1 < m; i += 2 {
				tp0, tq0 := wp[i], wq[i]
				tp1, tq1 := wp[i+1], wq[i+1]
				wp[i] = c*tp0 - s*tq0
				wq[i] = s*tp0 + c*tq0
				wp[i+1] = c*tp1 - s*tq1
				wq[i+1] = s*tp1 + c*tq1
			}
			for ; i < m; i++ {
				tp := wp[i]
				wp[i] = c*tp - s*wq[i]
				wq[i] = s*tp + c*wq[i]
			}
			vp, vq := v[p], v[q]
			i = 0
			for ; i+1 < n; i += 2 {
				tp0, tq0 := vp[i], vq[i]
				tp1, tq1 := vp[i+1], vq[i+1]
				vp[i] = c*tp0 - s*tq0
				vq[i] = s*tp0 + c*tq0
				vp[i+1] = c*tp1 - s*tq1
				vq[i+1] = s*tp1 + c*tq1
			}
			for ; i < n; i++ {
				tp := vp[i]
				vp[i] = c*tp - s*vq[i]
				vq[i] = s*tp + c*vq[i]
			}
		}
	}
	return rotated
}

// jacobiExtract turns converged working columns into the thin-SVD outputs:
// singular values are the column norms sorted descending, U the normalized
// columns, V the accumulated rotations, with rank-deficient columns of U
// completed to an orthonormal set.
func jacobiExtract(u *mat.Dense, sOut []float64, vOut *mat.Dense, w, v [][]float64, perm []int, sigma []float64, m, n int) {
	// Singular values = column norms, sorted descending. Stable insertion
	// sort: n is small (rank-sized) and, unlike sort.SliceStable, it does
	// not allocate — this runs once per slice per ALS iteration.
	for j := 0; j < n; j++ {
		sigma[j] = math.Sqrt(sumsq4(w[j]))
		perm[j] = j
	}
	for i := 1; i < n; i++ {
		p := perm[i]
		j := i - 1
		for ; j >= 0 && sigma[perm[j]] < sigma[p]; j-- {
			perm[j+1] = perm[j]
		}
		perm[j+1] = p
	}

	tiny := 0.0
	if n > 0 {
		tiny = sigma[perm[0]] * 1e-14
	}
	var deficient []int
	for jOut, src := range perm {
		sv := sigma[src]
		sOut[jOut] = sv
		wc := w[src]
		if sv > tiny && sv > 0 {
			inv := 1 / sv
			for i := 0; i < m; i++ {
				u.Data[i*n+jOut] = wc[i] * inv
			}
		} else {
			for i := 0; i < m; i++ {
				u.Data[i*n+jOut] = 0
			}
			deficient = append(deficient, jOut)
		}
		vc := v[src]
		for i := 0; i < n; i++ {
			vOut.Data[i*n+jOut] = vc[i]
		}
	}
	// Complete zero columns of U to an orthonormal set so UᵀU = I holds
	// even for rank-deficient input (the thin-SVD contract our callers,
	// in particular the Qk update of PARAFAC2, rely on).
	completeOrthonormal(u, deficient)
}

// completeOrthonormal fills the listed (currently zero) columns of u with
// unit vectors orthogonal to every other column, via Gram-Schmidt against
// the canonical basis.
func completeOrthonormal(u *mat.Dense, cols []int) {
	if len(cols) == 0 {
		return
	}
	m := u.Rows
	next := 0 // next canonical basis vector to try
	for _, j := range cols {
		for ; next < m; next++ {
			// candidate e_next, orthogonalized against all columns
			v := make([]float64, m)
			v[next] = 1
			for c := 0; c < u.Cols; c++ {
				var dot float64
				for i := 0; i < m; i++ {
					dot += v[i] * u.At(i, c)
				}
				if dot != 0 {
					for i := 0; i < m; i++ {
						v[i] -= dot * u.At(i, c)
					}
				}
			}
			// Second orthogonalization pass for numerical safety.
			for c := 0; c < u.Cols; c++ {
				var dot float64
				for i := 0; i < m; i++ {
					dot += v[i] * u.At(i, c)
				}
				if dot != 0 {
					for i := 0; i < m; i++ {
						v[i] -= dot * u.At(i, c)
					}
				}
			}
			norm := mat.Norm2(v)
			if norm > 0.5 {
				inv := 1 / norm
				for i := 0; i < m; i++ {
					u.Set(i, j, v[i]*inv)
				}
				next++
				break
			}
		}
	}
}

// Truncated computes the rank-r truncated SVD of a (keeps the r largest
// singular triplets). If r >= min(m,n) it is the full thin SVD.
func Truncated(a *mat.Dense, r int) SVD { return TruncatedWS(a, r, nil, nil) }

// TruncatedWS is Truncated with the heavy multiplies run on rn and an
// explicit Jacobi workspace (see FactorWS).
func TruncatedWS(a *mat.Dense, r int, rn mat.Runner, ws *Workspace) SVD {
	full := FactorWS(a, rn, ws)
	k := len(full.S)
	if r >= k {
		return full
	}
	return SVD{
		U: full.U.SubMatrix(0, 0, full.U.Rows, r),
		S: append([]float64(nil), full.S[:r]...),
		V: full.V.SubMatrix(0, 0, full.V.Rows, r),
	}
}

// Reconstruct returns U diag(S) Vᵀ.
func (d SVD) Reconstruct() *mat.Dense {
	return d.U.ScaleColumns(d.S).MulT(d.V)
}

// PInv returns the Moore-Penrose pseudoinverse of a, computed via the SVD
// with singular values below rcond·σ₁ treated as zero.
func PInv(a *mat.Dense) *mat.Dense {
	const rcond = 1e-12
	d := Factor(a)
	cutoff := 0.0
	if len(d.S) > 0 {
		cutoff = rcond * d.S[0]
	}
	inv := make([]float64, len(d.S))
	for i, s := range d.S {
		if s > cutoff {
			inv[i] = 1 / s
		}
	}
	// A⁺ = V diag(1/s) Uᵀ
	return d.V.ScaleColumns(inv).MulT(d.U)
}
