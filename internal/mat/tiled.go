package mat

// Register-blocked micro-kernels for the four dense products behind
// MulInto / TMulInto / MulTInto / GramInto.
//
// Shape of the kernels. The textbook 4×4 outer-product tile (sixteen
// accumulators) was benchmarked first and lost to the reference kernels on
// this target: gc keeps only a handful of floating-point chains live before
// it starts spilling tile accumulators to the stack, and the reference
// kernels already compile their fused multiply-adds to FMA instructions, so
// they sit close to the scalar FMA throughput wall. What wins instead —
// measured on the R×R ALS products and the tall I_k×(R+s) stage-1 products
// alike — is a smaller register block that cuts memory traffic without
// exceeding the register budget:
//
//   - mulTiledRange    2 output rows per pass, k unrolled ×2: the b-row
//     traffic is halved and each b load feeds two accumulator chains.
//   - tmulTiledRange   the k-quad structure of the reference kernel with two
//     output rows fused per pass (halves the b-row traffic).
//   - mulTTiledRange   2×4 dot tile: eight independent dot chains per pass,
//     so the latency of a single dot-accumulator chain is hidden.
//   - gramTiledUpper   2 input rows fused per pass over the upper triangle
//     (halves the output-triangle traffic, the dominant cost; ~2x).
//
// Determinism contract. Every kernel accumulates each output element with
// exactly one ordered add per inner index k, in strictly increasing k order —
// the same per-element sequence as the reference kernels and the naive
// triple loop. Results are therefore bitwise identical to the reference
// kernels on finite inputs (the reference kernels' zero-operand skips are
// the one nominal difference; they matter only for signed zeros and
// non-finite values), identical for every ParallelRanges split, and
// identical for every Runner width. Dispatch (the useTiled* predicates)
// depends only on operand shapes, never on the Runner, so a given multiply
// runs the same kernel — and produces the same bits — whether serial or
// parallel. The kernels_test.go property tests pin this equality.
//
// Relative to the PR-1 kernels nothing changed in accumulation order; the
// blocked kernels are a pure re-blocking of the same ordered sums.

// tiledSizing is the single sizing table for micro-kernel dispatch. The
// thresholds come from benchmarks on the two workload shapes (R×R ALS
// products, tall-skinny stage-1 products) plus awkward square fill-ins:
//
//   - Mul: the 2-row kernel wins from two rows up at every workload shape
//     (~5-10%), so it needs only the trivial minimums.
//   - TMul: fusing two output rows pays once the shared inner dimension
//     (rows of m) is long enough to amortize the wider pass (~7-22% for
//     long inner); below TMulMinInner the reference kernel is equal or
//     better.
//   - MulT: the 2×4 dot tile wins when the inner dimension is rank-sized
//     (~10-17% for inner ≤ MulTMaxInner); for long inner dots the reference
//     1×4 kernel already saturates the FMA ports and the second a-row
//     stream costs more than it saves.
//   - Gram: the fused 2-row kernel wins everywhere measured (~2x), so it
//     needs only two input rows.
type sizingTable struct {
	MulMinRows   int // mul: minimum output rows for the 2-row kernel
	MulMinInner  int // mul: minimum inner dimension for the k-pair unroll
	TMulMinInner int // tmul: minimum shared rows before row fusion pays
	MulTMaxInner int // mulT: maximum inner dimension for the 2×4 dot tile
	GramMinRows  int // gram: minimum input rows for the fused 2-row kernel
}

var tiledSizing = sizingTable{
	MulMinRows:   2,
	MulMinInner:  2,
	TMulMinInner: 16,
	MulTMaxInner: 32,
	GramMinRows:  2,
}

// useTiledMul reports whether out = m·b (outRows×outCols over inner) should
// run the register-blocked kernel.
func useTiledMul(outRows, outCols, inner int) bool {
	return outRows >= tiledSizing.MulMinRows && inner >= tiledSizing.MulMinInner && outCols > 0
}

// useTiledTMul reports whether out = mᵀ·b over inner shared rows should run
// the register-blocked kernel.
func useTiledTMul(outRows, outCols, inner int) bool {
	return outRows >= 2 && inner >= tiledSizing.TMulMinInner && outCols > 0
}

// useTiledMulT reports whether out = m·bᵀ should run the 2×4 dot tile.
func useTiledMulT(outRows, outCols, inner int) bool {
	return outRows >= 2 && inner > 0 && inner <= tiledSizing.MulTMaxInner && outCols > 0
}

// useTiledGram reports whether mᵀm should run the fused 2-row kernel.
func useTiledGram(rows int) bool {
	return rows >= tiledSizing.GramMinRows
}

// mulTiledRange computes rows [lo, hi) of out = m · b: two output rows per
// pass with the k loop unrolled by two. Per output element the adds happen
// one per k in increasing k order — bitwise identical to mulRange. The odd
// trailing row falls back to the reference kernel.
//
//repro:noalloc
func mulTiledRange(out, m, b *Dense, lo, hi int) {
	n := b.Cols
	kk := m.Cols
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := m.Data[i*kk : (i+1)*kk]
		a1 := m.Data[(i+1)*kk : (i+2)*kk]
		o0 := out.Data[i*n : (i+1)*n]
		o1 := out.Data[(i+1)*n : (i+2)*n]
		for j := range o0 {
			o0[j] = 0
			o1[j] = 0
		}
		k := 0
		for ; k+1 < kk; k += 2 {
			av0, av1 := a0[k], a0[k+1]
			aw0, aw1 := a1[k], a1[k+1]
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			for j, bv := range b0 {
				bv1 := b1[j]
				s := o0[j]
				s += av0 * bv
				s += av1 * bv1
				o0[j] = s
				t := o1[j]
				t += aw0 * bv
				t += aw1 * bv1
				o1[j] = t
			}
		}
		for ; k < kk; k++ {
			av, aw := a0[k], a1[k]
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				o0[j] += av * bv
				o1[j] += aw * bv
			}
		}
	}
	if i < hi {
		mulRange(out, m, b, i, hi)
	}
}

// tmulTiledRange accumulates mᵀ[:, lo:hi] · b[lo:hi, :] into out: the k-quad
// structure of tmulRange with two output rows (columns of m) fused per pass.
// Same ordered adds per element as tmulRange; the sub-quad remainder reuses
// the reference kernel.
//
//repro:noalloc
func tmulTiledRange(out, m, b *Dense, lo, hi int) {
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
		i := 0
		for ; i+2 <= c; i += 2 {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			aw0, aw1, aw2, aw3 := a0[i+1], a1[i+1], a2[i+1], a3[i+1]
			o0 := out.Data[i*n : (i+1)*n]
			o1 := out.Data[(i+1)*n : (i+2)*n]
			for j, bv := range b0 {
				bv1, bv2, bv3 := b1[j], b2[j], b3[j]
				s := o0[j]
				s += av0 * bv
				s += av1 * bv1
				s += av2 * bv2
				s += av3 * bv3
				o0[j] = s
				t := o1[j]
				t += aw0 * bv
				t += aw1 * bv1
				t += aw2 * bv2
				t += aw3 * bv3
				o1[j] = t
			}
		}
		for ; i < c; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
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
	if k < hi {
		tmulRange(out, m, b, k, hi)
	}
}

// mulTTiledRange computes rows [lo, hi) of out = m · bᵀ with a 2×4 dot tile:
// two m rows against four b rows, eight independent accumulator chains.
// Each output element remains a single dot accumulated in increasing k
// order — bitwise identical to mulTRange. The odd trailing row falls back
// to the reference kernel.
//
//repro:noalloc
func mulTTiledRange(out, m, b *Dense, lo, hi int) {
	c := m.Cols
	br := b.Rows
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := m.Data[i*c : (i+1)*c]
		a1 := m.Data[(i+1)*c : (i+2)*c]
		o0 := out.Data[i*br : (i+1)*br]
		o1 := out.Data[(i+1)*br : (i+2)*br]
		j := 0
		for ; j+3 < br; j += 4 {
			b0 := b.Data[j*c : (j+1)*c]
			b1 := b.Data[(j+1)*c : (j+2)*c]
			b2 := b.Data[(j+2)*c : (j+3)*c]
			b3 := b.Data[(j+3)*c : (j+4)*c]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, av := range a0 {
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				s00 += av * bv0
				s01 += av * bv1
				s02 += av * bv2
				s03 += av * bv3
				av = a1[k]
				s10 += av * bv0
				s11 += av * bv1
				s12 += av * bv2
				s13 += av * bv3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < br; j++ {
			brow := b.Data[j*c : (j+1)*c]
			var s0, s1 float64
			for k, av := range a0 {
				s0 += av * brow[k]
				s1 += a1[k] * brow[k]
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < hi {
		mulTRange(out, m, b, i, hi)
	}
}

// gramTiledUpper accumulates the upper triangle of mᵀm for input rows
// [lo, hi), two rows fused per pass. Per element: one ordered add per input
// row in increasing row order, exactly as the reference triangle loop, so
// GramInto keeps its documented bitwise agreement with serial TMul(m, m).
//
//repro:noalloc
func gramTiledUpper(out, m *Dense, lo, hi int) {
	n := m.Cols
	k := lo
	for ; k+1 < hi; k += 2 {
		a0 := m.Data[k*n : (k+1)*n]
		a1 := m.Data[(k+1)*n : (k+2)*n]
		for i := 0; i < n; i++ {
			av0, av1 := a0[i], a1[i]
			orow := out.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				s := orow[j]
				s += av0 * a0[j]
				s += av1 * a1[j]
				orow[j] = s
			}
		}
	}
	for ; k < hi; k++ {
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
