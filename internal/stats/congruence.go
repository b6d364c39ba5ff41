package stats

import (
	"math"

	"repro/internal/mat"
)

// Factor-match metrics: PARAFAC2 factors are identified only up to column
// permutation and sign, so comparing two decompositions (e.g. DPar2 vs
// exact ALS, or streamed vs batch) requires a permutation-invariant score.
// The standard tool is Tucker's congruence coefficient with a greedy column
// matching.

// Congruence returns Tucker's congruence coefficient between two vectors:
// ⟨x, y⟩ / (‖x‖‖y‖), in [-1, 1]. Unlike Pearson it does not center, which
// is the convention for comparing factor loadings.
func Congruence(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Congruence length mismatch")
	}
	nx := mat.Norm2(x)
	ny := mat.Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return mat.Dot(x, y) / (nx * ny)
}

// FactorMatchScore compares two factor matrices (same shape, columns =
// components) up to column permutation and sign: it greedily pairs each
// column of a with its best-|congruence| column of b (without replacement)
// and returns the average absolute congruence of the pairing, in [0, 1].
// 1 means the factors span identical directions component-by-component.
func FactorMatchScore(a, b *mat.Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("stats: FactorMatchScore shape mismatch")
	}
	r := a.Cols
	if r == 0 {
		return 1
	}
	used := make([]bool, r)
	var total float64
	for i := 0; i < r; i++ {
		ai := a.Col(i)
		best, bestAbs := -1, -1.0
		for j := 0; j < r; j++ {
			if used[j] {
				continue
			}
			c := math.Abs(Congruence(ai, b.Col(j)))
			if c > bestAbs {
				best, bestAbs = j, c
			}
		}
		used[best] = true
		total += bestAbs
	}
	return total / float64(r)
}
