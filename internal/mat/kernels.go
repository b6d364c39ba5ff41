package mat

import "math"

// Runner schedules contiguous index ranges onto a worker pool. It is the
// only parallelism hook the kernels have: there is no package-global worker
// count. *compute.Pool implements Runner; a nil Runner (or a nil *Pool) runs
// serially on the calling goroutine.
type Runner interface {
	// Workers reports the maximum concurrency the runner provides.
	Workers() int
	// ParallelRanges cuts [0, n) into disjoint contiguous chunks that
	// cover it, runs fn on each, at most Workers() at a time, and returns
	// when all chunks are done. The number of chunks and where they are
	// cut are the runner's choice (*compute.Pool cuts a few per lane), so
	// a kernel's result must not depend on them.
	ParallelRanges(n int, fn func(lo, hi int))
}

// runnerWidth returns the concurrency of rn, treating nil as serial.
func runnerWidth(rn Runner) int {
	if rn == nil {
		return 1
	}
	return rn.Workers()
}

// parRowThreshold is the minimum row count before a kernel fans out; below
// it the goroutine handoff costs more than the arithmetic.
const parRowThreshold = 64

// Mul returns m * b. Panics on inner-dimension mismatch. Serial; pass a
// Runner via MulInto to parallelize.
func (m *Dense) Mul(b *Dense) *Dense {
	return m.MulInto(New(m.Rows, b.Cols), b, nil)
}

// MulInto computes out = m * b and returns out. out must be m.Rows×b.Cols
// and must not alias m or b. rn may be nil (serial).
//
// Shapes large enough for the register-blocked micro-kernel (see tiledSizing
// in tiled.go) run blocked — two output rows per pass with the k loop
// unrolled — while degenerate shapes run the reference kernel, which streams
// rows of b in blocks of four per output row (classic i-k-j ordering with the
// k loop unrolled). Both keep every access pattern sequential and accumulate
// each output element in increasing k order, so results are bitwise identical
// to the naive kernel and independent of the dispatch decision.
func (m *Dense) MulInto(out, b *Dense, rn Runner) *Dense {
	if m.Cols != b.Rows {
		panic("mat: Mul inner dimension mismatch")
	}
	if out.Rows != m.Rows || out.Cols != b.Cols {
		panic("mat: MulInto shape mismatch")
	}
	kernel := mulRange
	if useTiledMul(m.Rows, b.Cols, m.Cols) {
		kernel = mulTiledRange
	}
	// The serial fast path calls the range kernel directly: no closure is
	// allocated, which matters for the R×R multiplies of the ALS hot loop.
	if rn == nil || m.Rows < parRowThreshold {
		kernel(out, m, b, 0, m.Rows)
		return out
	}
	rn.ParallelRanges(m.Rows, func(lo, hi int) { kernel(out, m, b, lo, hi) })
	return out
}

// mulRange computes rows [lo, hi) of out = m * b with the k loop unrolled by
// four (ordered adds — same rounding as the naive i-k-j kernel).
func mulRange(out, m, b *Dense, lo, hi int) {
	n := b.Cols
	kk := m.Cols
	for i := lo; i < hi; i++ {
		arow := m.Data[i*kk : (i+1)*kk]
		orow := out.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		k := 0
		for ; k+3 < kk; k += 4 {
			av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			for j, bv := range b0 {
				// Four ordered adds: same rounding as four
				// separate k iterations of the naive kernel.
				s := orow[j]
				s += av0 * bv
				s += av1 * b1[j]
				s += av2 * b2[j]
				s += av3 * b3[j]
				orow[j] = s
			}
		}
		for ; k < kk; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// TMul returns mᵀ * b without materializing the transpose. Serial; pass a
// Runner via TMulInto to parallelize.
func (m *Dense) TMul(b *Dense) *Dense {
	return m.TMulInto(New(m.Cols, b.Cols), b, nil)
}

// tmulChunk is the fixed row-block size of the TMul partial sums. Fixing it
// (instead of deriving it from the worker count) makes the accumulation
// order — and therefore the result, bit for bit — independent of the pool
// width, including serial execution.
const tmulChunk = 2 * parRowThreshold

// TMulInto computes out = mᵀ * b and returns out. out must be m.Cols×b.Cols
// and must not alias m or b. rn may be nil (serial).
//
// Both inputs stream row by row over the shared inner dimension. Tall
// inputs accumulate into fixed-size row-block partials that are reduced in
// block order, so the result is identical for every Runner width.
func (m *Dense) TMulInto(out, b *Dense, rn Runner) *Dense {
	if m.Rows != b.Rows {
		panic("mat: TMul dimension mismatch")
	}
	if out.Rows != m.Cols || out.Cols != b.Cols {
		panic("mat: TMulInto shape mismatch")
	}
	n := b.Cols
	kernel := tmulRange
	if useTiledTMul(m.Cols, n, m.Rows) {
		kernel = tmulTiledRange
	}
	if m.Rows <= tmulChunk {
		out.Zero()
		kernel(out, m, b, 0, m.Rows)
		return out
	}
	numChunks := (m.Rows + tmulChunk - 1) / tmulChunk
	if runnerWidth(rn) <= 1 {
		// Serial: one reused partial, reduced in the same block order as
		// the parallel path.
		out.Zero()
		p := New(m.Cols, n)
		for c := 0; c < numChunks; c++ {
			lo := c * tmulChunk
			hi := lo + tmulChunk
			if hi > m.Rows {
				hi = m.Rows
			}
			p.Zero()
			kernel(p, m, b, lo, hi)
			out.AddInPlace(p)
		}
		return out
	}
	partials := make([]*Dense, numChunks)
	rn.ParallelRanges(numChunks, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * tmulChunk
			hi := lo + tmulChunk
			if hi > m.Rows {
				hi = m.Rows
			}
			p := New(m.Cols, n)
			kernel(p, m, b, lo, hi)
			partials[c] = p
		}
	})
	out.Zero()
	for _, p := range partials {
		out.AddInPlace(p)
	}
	return out
}

// tmulRange accumulates mᵀ[:, lo:hi] * b[lo:hi, :] into out, with the k loop
// unrolled by four (ordered adds — same rounding as the naive kernel).
func tmulRange(out, m, b *Dense, lo, hi int) {
	n := b.Cols
	c := m.Cols
	k := lo
	for ; k+3 < hi; k += 4 {
		a0 := m.Data[k*c : (k+1)*c]
		a1 := m.Data[(k+1)*c : (k+2)*c]
		a2 := m.Data[(k+2)*c : (k+3)*c]
		a3 := m.Data[(k+3)*c : (k+4)*c]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := 0; i < c; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range b0 {
				s := orow[j]
				s += av0 * bv
				s += av1 * b1[j]
				s += av2 * b2[j]
				s += av3 * b3[j]
				orow[j] = s
			}
		}
	}
	for ; k < hi; k++ {
		arow := m.Data[k*c : (k+1)*c]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulT returns m * bᵀ without materializing the transpose. Serial; pass a
// Runner via MulTInto to parallelize.
func (m *Dense) MulT(b *Dense) *Dense {
	return m.MulTInto(New(m.Rows, b.Rows), b, nil)
}

// MulTInto computes out = m * bᵀ and returns out. out must be m.Rows×b.Rows
// and must not alias m or b. rn may be nil (serial).
//
// Each output element is a row-row dot product; four b rows are processed
// per pass so each load of the m row feeds four accumulators.
func (m *Dense) MulTInto(out, b *Dense, rn Runner) *Dense {
	if m.Cols != b.Cols {
		panic("mat: MulT dimension mismatch")
	}
	if out.Rows != m.Rows || out.Cols != b.Rows {
		panic("mat: MulTInto shape mismatch")
	}
	kernel := mulTRange
	if useTiledMulT(m.Rows, b.Rows, m.Cols) {
		kernel = mulTTiledRange
	}
	if rn == nil || m.Rows < parRowThreshold {
		kernel(out, m, b, 0, m.Rows)
		return out
	}
	rn.ParallelRanges(m.Rows, func(lo, hi int) { kernel(out, m, b, lo, hi) })
	return out
}

// mulTRange computes rows [lo, hi) of out = m * bᵀ, four b rows per pass so
// each load of the m row feeds four accumulators.
func mulTRange(out, m, b *Dense, lo, hi int) {
	c := m.Cols
	br := b.Rows
	for i := lo; i < hi; i++ {
		arow := m.Data[i*c : (i+1)*c]
		orow := out.Data[i*br : (i+1)*br]
		j := 0
		for ; j+3 < br; j += 4 {
			b0 := b.Data[j*c : (j+1)*c]
			b1 := b.Data[(j+1)*c : (j+2)*c]
			b2 := b.Data[(j+2)*c : (j+3)*c]
			b3 := b.Data[(j+3)*c : (j+4)*c]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < br; j++ {
			brow := b.Data[j*c : (j+1)*c]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
}

// Gram returns mᵀm, exploiting symmetry: only the upper triangle is
// computed, then mirrored. Accumulation streams the rows of m in order —
// the same order as serial TMul(m, m) for inputs up to tmulChunk rows
// (beyond that TMul switches to block-partial reduction, so the two can
// differ at the ULP level).
func (m *Dense) Gram() *Dense {
	return m.GramInto(New(m.Cols, m.Cols))
}

// GramInto computes out = mᵀm and returns out. out must be square of size
// m.Cols and must not alias m.
func (m *Dense) GramInto(out *Dense) *Dense {
	n := m.Cols
	if out.Rows != n || out.Cols != n {
		panic("mat: GramInto shape mismatch")
	}
	out.Zero()
	if useTiledGram(m.Rows) {
		gramTiledUpper(out, m, 0, m.Rows)
	} else {
		for k := 0; k < m.Rows; k++ {
			arow := m.Data[k*n : (k+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := out.Data[i*n : (i+1)*n]
				for j := i; j < n; j++ {
					orow[j] += av * arow[j]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// MulVec returns m * x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.Rows), x)
}

// MulVecInto computes dst = m * x and returns dst. len(dst) must be m.Rows.
func (m *Dense) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("mat: MulVecInto length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum float64
		for k, v := range row {
			sum += v * x[k]
		}
		dst[i] = sum
	}
	return dst
}

// TMulVec returns mᵀ * x.
func (m *Dense) TMulVec(x []float64) []float64 {
	return m.TMulVecInto(make([]float64, m.Cols), x)
}

// TMulVecInto computes dst = mᵀ * x and returns dst. len(dst) must be
// m.Cols.
func (m *Dense) TMulVecInto(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: TMulVec dimension mismatch")
	}
	if len(dst) != m.Cols {
		panic("mat: TMulVecInto length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k, v := range row {
			dst[k] += v * xi
		}
	}
	return dst
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var sum float64
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}
