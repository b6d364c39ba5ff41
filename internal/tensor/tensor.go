// Package tensor provides the tensor types DPar2 operates on: the ragged
// Irregular tensor {X_k} (slices with equal column counts but varying row
// counts) and the regular 3-order Dense3 tensor with its mode-n
// matricizations, which the PARAFAC2-ALS baseline runs CP-ALS on.
//
// Conventions follow Kolda & Bader, "Tensor Decompositions and Applications"
// (SIAM Review 2009), the reference the paper cites:
//
//   - a K-slice tensor Y with frontal slices Y_k ∈ R^{I×J} has
//     Y(1) = [Y_1 ‖ Y_2 ‖ … ‖ Y_K]            (I × JK)    — but note the
//     ordering used in the DPar2 paper groups slice blocks contiguously,
//     which is what we implement (column (k-1)J+j holds Y_k(:, j));
//   - Y(2) = [Y_1ᵀ ‖ … ‖ Y_Kᵀ]                 (J × IK);
//   - Y(3) has row k equal to vec(Y_k)ᵀ         (K × IJ).
//
// These orderings are exactly the ones Lemmas 1-3 of the paper manipulate.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Irregular is a 3-order irregular tensor {X_k}_{k=1..K}: a collection of
// dense slices that share a column count J but have individual row counts
// I_k. This is the input object of PARAFAC2 decomposition.
type Irregular struct {
	Slices []*mat.Dense
	J      int
}

// NewIrregular validates that every slice has J columns and wraps them.
func NewIrregular(slices []*mat.Dense) (*Irregular, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("tensor: no slices")
	}
	j := slices[0].Cols
	for k, s := range slices {
		if s.Cols != j {
			return nil, fmt.Errorf("tensor: slice %d has %d columns, want %d", k, s.Cols, j)
		}
		if s.Rows == 0 {
			return nil, fmt.Errorf("tensor: slice %d has zero rows", k)
		}
	}
	return &Irregular{Slices: slices, J: j}, nil
}

// MustIrregular is NewIrregular that panics on error; for tests and
// generators whose inputs are valid by construction.
func MustIrregular(slices []*mat.Dense) *Irregular {
	t, err := NewIrregular(slices)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the number of slices.
func (t *Irregular) K() int { return len(t.Slices) }

// Rows returns the per-slice row counts I_k.
func (t *Irregular) Rows() []int {
	r := make([]int, len(t.Slices))
	for k, s := range t.Slices {
		r[k] = s.Rows
	}
	return r
}

// NumElements returns Σ_k I_k · J, the dense element count.
func (t *Irregular) NumElements() int {
	n := 0
	for _, s := range t.Slices {
		n += s.Rows * s.Cols
	}
	return n
}

// MaxRows returns max_k I_k.
func (t *Irregular) MaxRows() int {
	m := 0
	for _, s := range t.Slices {
		if s.Rows > m {
			m = s.Rows
		}
	}
	return m
}

// Norm2 returns Σ_k ‖X_k‖_F², the squared Frobenius norm of the tensor.
func (t *Irregular) Norm2() float64 {
	var sum float64
	for _, s := range t.Slices {
		sum += s.FrobNorm2()
	}
	return sum
}

// Norm returns the Frobenius norm of the tensor.
func (t *Irregular) Norm() float64 { return math.Sqrt(t.Norm2()) }

// SizeBytes returns the in-memory footprint of the raw values.
func (t *Irregular) SizeBytes() int64 { return int64(t.NumElements()) * 8 }

// Dense3 is a regular 3-order tensor of shape I × J × K stored as K frontal
// slices of size I × J. PARAFAC2-ALS builds one of these (with I = R) from
// the projected slices Y_k = Q_kᵀ X_k.
type Dense3 struct {
	I, J, K int
	Slices  []*mat.Dense // Slices[k] is the k-th frontal slice, I×J
}

// NewDense3 assembles a regular tensor from equal-shaped frontal slices.
func NewDense3(slices []*mat.Dense) (*Dense3, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("tensor: no slices")
	}
	i, j := slices[0].Rows, slices[0].Cols
	for k, s := range slices {
		if s.Rows != i || s.Cols != j {
			return nil, fmt.Errorf("tensor: slice %d is %dx%d, want %dx%d", k, s.Rows, s.Cols, i, j)
		}
	}
	return &Dense3{I: i, J: j, K: len(slices), Slices: slices}, nil
}

// MustDense3 panics on error.
func MustDense3(slices []*mat.Dense) *Dense3 {
	t, err := NewDense3(slices)
	if err != nil {
		panic(err)
	}
	return t
}

// At returns element (i, j, k).
func (t *Dense3) At(i, j, k int) float64 { return t.Slices[k].At(i, j) }

// Set assigns element (i, j, k).
func (t *Dense3) Set(i, j, k int, v float64) { t.Slices[k].Set(i, j, v) }

// Norm2 returns the squared Frobenius norm.
func (t *Dense3) Norm2() float64 {
	var sum float64
	for _, s := range t.Slices {
		sum += s.FrobNorm2()
	}
	return sum
}

// Norm returns the Frobenius norm.
func (t *Dense3) Norm() float64 { return math.Sqrt(t.Norm2()) }

// Matricize returns the mode-n unfolding (n ∈ {1, 2, 3}) with the slice-block
// column ordering described in the package comment.
func (t *Dense3) Matricize(mode int) *mat.Dense {
	switch mode {
	case 1:
		// I × JK: horizontal concatenation of the frontal slices.
		return mat.HConcat(t.Slices...)
	case 2:
		// J × IK: horizontal concatenation of the transposed slices.
		ts := make([]*mat.Dense, t.K)
		for k, s := range t.Slices {
			ts[k] = s.T()
		}
		return mat.HConcat(ts...)
	case 3:
		// K × IJ: row k is vec(Y_k)ᵀ (column-major vectorization).
		out := mat.New(t.K, t.I*t.J)
		for k, s := range t.Slices {
			copy(out.Row(k), s.Vec())
		}
		return out
	default:
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
}

// CPReconstruct evaluates the CP model [[A, B, C]]: the tensor with frontal
// slices A · diag(C(k, :)) · Bᵀ. A is I×R, B is J×R, C is K×R.
func CPReconstruct(a, b, c *mat.Dense) *Dense3 {
	if a.Cols != b.Cols || b.Cols != c.Cols {
		panic("tensor: CP factor rank mismatch")
	}
	slices := make([]*mat.Dense, c.Rows)
	for k := 0; k < c.Rows; k++ {
		slices[k] = a.ScaleColumns(c.Row(k)).MulT(b)
	}
	return MustDense3(slices)
}

// MTTKRP computes the matricized-tensor times Khatri-Rao product
// Y(n) · (C ⊙ B) without materializing Y(n) or the Khatri-Rao product,
// accumulating slice by slice. This is the workhorse of CP-ALS and the
// operation Lemmas 1-3 of the paper reorder.
//
// mode 1: returns I×R = Σ_k Y_k · B · diag(C(k,:))      with krA=C (K×R), krB=B (J×R)
// mode 2: returns J×R = Σ_k Y_kᵀ · A · diag(C(k,:))     with krA=C (K×R), krB=A (I×R)
// mode 3: returns K×R with row k = 1ᵀ(Y_k ∗ (A diag · Bᵀ))… computed as
//
//	row k = diag(Aᵀ Y_k B)                         with krA=B (J×R), krB=A (I×R)
func (t *Dense3) MTTKRP(mode int, krA, krB *mat.Dense) *mat.Dense {
	switch mode {
	case 1:
		c, b := krA, krB
		r := c.Cols
		out := mat.New(t.I, r)
		for k, yk := range t.Slices {
			yb := yk.Mul(b) // I×R
			crow := c.Row(k)
			for i := 0; i < t.I; i++ {
				orow := out.Row(i)
				yrow := yb.Row(i)
				for rr := 0; rr < r; rr++ {
					orow[rr] += yrow[rr] * crow[rr]
				}
			}
		}
		return out
	case 2:
		c, a := krA, krB
		r := c.Cols
		out := mat.New(t.J, r)
		for k, yk := range t.Slices {
			ya := yk.TMul(a) // J×R
			crow := c.Row(k)
			for j := 0; j < t.J; j++ {
				orow := out.Row(j)
				yrow := ya.Row(j)
				for rr := 0; rr < r; rr++ {
					orow[rr] += yrow[rr] * crow[rr]
				}
			}
		}
		return out
	case 3:
		b, a := krA, krB
		r := b.Cols
		out := mat.New(t.K, r)
		for k, yk := range t.Slices {
			// row k = diag(Aᵀ Y_k B): entry r is a_rᵀ Y_k b_r.
			ay := a.TMul(yk) // R×J
			orow := out.Row(k)
			for rr := 0; rr < r; rr++ {
				var sum float64
				ayRow := ay.Row(rr)
				for j := 0; j < t.J; j++ {
					sum += ayRow[j] * b.At(j, rr)
				}
				orow[rr] = sum
			}
		}
		return out
	default:
		panic(fmt.Sprintf("tensor: invalid MTTKRP mode %d", mode))
	}
}
