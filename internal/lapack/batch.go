package lapack

import "repro/internal/mat"

// BatchWorkspace owns the scratch for FactorBatch: one slab backing the
// working and rotation columns of every problem in the batch, one slab of
// their column headers, plus the per-problem permutation/norm scratch and
// convergence masks. Its allocation count is independent of the batch size,
// and reusing a BatchWorkspace across calls makes steady-state FactorBatch
// allocation-free apart from the Runner's own scheduling overhead (one
// parallel region per call). A BatchWorkspace is not safe for concurrent use
// by multiple FactorBatch calls.
type BatchWorkspace struct {
	buf   []float64
	cols  [][]float64   // every problem's column headers, two per column
	wcols [][][]float64 // wcols[p][j]: working column j of problem p
	vcols [][][]float64 // vcols[p][j]: rotation column j of problem p
	perm  []int
	perms [][]int
	sig   []float64
	sigs  [][]float64
	done  []bool // problem converged; drops out of later sweeps
}

// reserve sizes the workspace for the given batch of problems.
func (ws *BatchWorkspace) reserve(as []*mat.Dense) {
	k := len(as)
	need, permNeed := 0, 0
	for _, a := range as {
		m, n := a.Rows, a.Cols
		need += n * (m + n)
		permNeed += n
	}
	if cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	ws.buf = ws.buf[:need]
	if cap(ws.perm) < permNeed {
		ws.perm = make([]int, permNeed)
		ws.sig = make([]float64, permNeed)
		ws.cols = make([][]float64, 2*permNeed)
	}
	ws.perm = ws.perm[:permNeed]
	ws.sig = ws.sig[:permNeed]
	if cap(ws.wcols) < k {
		ws.wcols = make([][][]float64, k)
		ws.vcols = make([][][]float64, k)
		ws.perms = make([][]int, k)
		ws.sigs = make([][]float64, k)
		ws.done = make([]bool, k)
	}
	ws.wcols = ws.wcols[:k]
	ws.vcols = ws.vcols[:k]
	ws.perms = ws.perms[:k]
	ws.sigs = ws.sigs[:k]
	ws.done = ws.done[:k]
	off, poff := 0, 0
	for p, a := range as {
		m, n := a.Rows, a.Cols
		ws.wcols[p] = ws.cols[2*poff : 2*poff+n : 2*poff+n]
		ws.vcols[p] = ws.cols[2*poff+n : 2*(poff+n) : 2*(poff+n)]
		for j := 0; j < n; j++ {
			ws.wcols[p][j] = ws.buf[off+j*m : off+(j+1)*m]
			ws.vcols[p][j] = ws.buf[off+n*m+j*n : off+n*m+(j+1)*n]
		}
		off += n * (m + n)
		ws.perms[p] = ws.perm[poff : poff+n]
		ws.sigs[p] = ws.sig[poff : poff+n]
		poff += n
		ws.done[p] = false
	}
}

// FactorBatch computes the thin SVD of every problem in the batch directly
// into the preallocated outputs: as[p] = us[p] · diag(ss[p]) · vs[p]ᵀ with
// the same shape contract as FactorInto (as[p].Rows ≥ as[p].Cols; us[p]
// matches as[p]; ss[p] has length as[p].Cols; vs[p] is square of size
// as[p].Cols). as is not modified. ws may be nil, in which case a fresh
// workspace is allocated; hot loops should hold one BatchWorkspace and pass
// it to every call.
//
// The problems are partitioned across rn (nil means serial) in one parallel
// region. Each partition advances its problems in fused lockstep sweeps:
// every Jacobi sweep makes one pass over the partition's cache-resident
// share of the slab, and a per-problem convergence mask drops finished
// problems out of later sweeps. Parallelism is only ever across problems —
// each problem's rotations run in its FactorInto order via the shared
// load/sweep/extract core — so for every problem p the outputs are
// bit-identical to a sequential FactorInto(as[p], ...) call, for every
// Runner width including none.
//
//repro:noalloc
func FactorBatch(as, us []*mat.Dense, ss [][]float64, vs []*mat.Dense, rn mat.Runner, ws *BatchWorkspace) {
	k := len(as)
	if len(us) != k || len(ss) != k || len(vs) != k {
		panic("lapack: FactorBatch batch length mismatch")
	}
	if k == 0 {
		return
	}
	for p, a := range as {
		m, n := a.Rows, a.Cols
		if m < n {
			panic("lapack: FactorBatch requires rows >= cols")
		}
		if us[p].Rows != m || us[p].Cols != n || len(ss[p]) != n || vs[p].Rows != n || vs[p].Cols != n {
			panic("lapack: FactorBatch output shape mismatch")
		}
	}
	if ws == nil {
		ws = new(BatchWorkspace) //repro:allow(noalloc) cold nil-workspace fallback; hot loops pass a warmed ws and never reach this
	}
	ws.reserve(as)

	if rn == nil || rn.Workers() <= 1 {
		// Direct method call: the serial path stays allocation-free with a
		// warmed workspace (a closure here would heap-allocate per call).
		ws.runPartition(as, us, ss, vs, 0, k)
		return
	}
	//repro:allow(noalloc) one closure per parallel batch call, amortized over the whole fused sweep; the serial path above avoids it
	rn.ParallelRanges(k, func(lo, hi int) {
		ws.runPartition(as, us, ss, vs, lo, hi)
	})
}

// runPartition advances problems [lo, hi) from load through fused lockstep
// sweeps to extraction. Exactly one worker owns a partition, so the shared
// workspace slices are touched without synchronization.
//
//repro:noalloc
func (ws *BatchWorkspace) runPartition(as, us []*mat.Dense, ss [][]float64, vs []*mat.Dense, lo, hi int) {
	for p := lo; p < hi; p++ {
		jacobiLoad(as[p], ws.wcols[p], ws.vcols[p])
	}
	active := hi - lo
	for sweep := 0; sweep < maxJacobiSweeps && active > 0; sweep++ {
		for p := lo; p < hi; p++ {
			if ws.done[p] {
				continue
			}
			if !jacobiSweep(ws.wcols[p], ws.vcols[p], as[p].Rows, as[p].Cols) {
				ws.done[p] = true
				active--
			}
		}
	}
	for p := lo; p < hi; p++ {
		jacobiExtract(us[p], ss[p], vs[p], ws.wcols[p], ws.vcols[p], ws.perms[p], ws.sigs[p], as[p].Rows, as[p].Cols)
	}
}
