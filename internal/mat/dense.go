// Package mat implements the dense linear-algebra substrate the rest of the
// repository is built on: a row-major matrix type with the BLAS-like kernels
// (multiply, transpose-multiply, Kronecker, Khatri-Rao, Hadamard, vec, norms)
// that PARAFAC2 decomposition needs.
//
// Everything is float64 and stdlib-only. Hot loops operate on row slices so
// the compiler can hoist bounds checks; the multiply kernels split work over
// a caller-supplied number of goroutines.
//
// # Kernel tiling and dispatch
//
// Each product (MulInto, TMulInto, MulTInto, GramInto) has a reference
// kernel and a register-blocked kernel (tiled.go). Dispatch between them is
// decided by the single sizing table tiledSizing from operand shapes alone —
// never from the Runner — so a given multiply always runs the same kernel
// whether serial or parallel.
//
// # Determinism rule
//
// Every kernel — reference or blocked, any Runner width, any ParallelRanges
// split — accumulates each output element with exactly one ordered add per
// inner index, in strictly increasing index order. Results are therefore
// bitwise identical across thread counts and across the reference/blocked
// boundary on finite inputs; tiled_test.go pins both properties. Changes to
// a kernel's accumulation order are not allowed here (contrast with
// package lapack, whose policy permits serial reorderings).
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. Element (i, j) lives at Data[i*Cols+j].
// Methods with a value receiver never mutate the matrix unless documented.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromData wraps data (len must be r*c) without copying.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// NewFromFunc builds an r-by-c matrix with element (i,j) = f(i,j).
func NewFromFunc(r, c int, f func(i, j int) float64) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			row[j] = f(i, j)
		}
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Dense) Col(j int) []float64 {
	c := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		c[i] = m.Data[i*m.Cols+j]
	}
	return c
}

// SetCol overwrites column j with v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// CopyFrom overwrites m with src; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SubMatrix copies the block [r0, r0+nr) x [c0, c0+nc) into a new matrix.
func (m *Dense) SubMatrix(r0, c0, nr, nc int) *Dense {
	if r0 < 0 || c0 < 0 || r0+nr > m.Rows || c0+nc > m.Cols {
		panic("mat: SubMatrix out of range")
	}
	out := New(nr, nc)
	for i := 0; i < nr; i++ {
		copy(out.Row(i), m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+nc])
	}
	return out
}

// RowBlock returns rows [r0, r1) as a copy.
func (m *Dense) RowBlock(r0, r1 int) *Dense {
	return m.SubMatrix(r0, 0, r1-r0, m.Cols)
}

// RowView returns rows [r0, r1) as a view sharing m's backing array (no
// copy); writes through the view are writes into m. Row-major layout makes
// any contiguous row block a valid matrix — this is what lets stage-1
// sharding sketch a tall slice shard by shard without duplicating it.
func (m *Dense) RowView(r0, r1 int) *Dense {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic("mat: RowView out of range")
	}
	return &Dense{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols]}
}

// SetSubMatrix writes src into m starting at (r0, c0).
func (m *Dense) SetSubMatrix(r0, c0 int, src *Dense) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic("mat: SetSubMatrix out of range")
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Row(i))
	}
}

// T returns the transpose as a new matrix (blocked for cache friendliness).
func (m *Dense) T() *Dense {
	return m.TInto(New(m.Cols, m.Rows))
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	checkSameShape("Add", m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m - b.
func (m *Dense) Sub(b *Dense) *Dense {
	checkSameShape("Sub", m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// AddInPlace sets m += b and returns m.
func (m *Dense) AddInPlace(b *Dense) *Dense {
	checkSameShape("AddInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// AddScaledInPlace sets m += alpha*b and returns m.
func (m *Dense) AddScaledInPlace(alpha float64, b *Dense) *Dense {
	checkSameShape("AddScaledInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += alpha * v
	}
	return m
}

// Scale returns alpha * m.
func (m *Dense) Scale(alpha float64) *Dense {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= alpha
	}
	return out
}

// ScaleInPlace sets m *= alpha and returns m.
func (m *Dense) ScaleInPlace(alpha float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
	return m
}

// Hadamard returns the element-wise product m ∗ b.
func (m *Dense) Hadamard(b *Dense) *Dense {
	checkSameShape("Hadamard", m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// ScaleColumns returns m with column j multiplied by s[j]. This is the
// common "multiply by a diagonal matrix on the right" operation: m * diag(s).
func (m *Dense) ScaleColumns(s []float64) *Dense {
	if len(s) != m.Cols {
		panic("mat: ScaleColumns length mismatch")
	}
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j, sv := range s {
			row[j] *= sv
		}
	}
	return out
}

// ScaleColumnsInto computes out = m * diag(s) and returns out. out must
// match m's shape; aliasing out with m is allowed.
func (m *Dense) ScaleColumnsInto(out *Dense, s []float64) *Dense {
	if len(s) != m.Cols {
		panic("mat: ScaleColumnsInto length mismatch")
	}
	checkSameShape("ScaleColumnsInto", out, m)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, sv := range s {
			dst[j] = src[j] * sv
		}
	}
	return out
}

// ScaleRows returns diag(s) * m.
func (m *Dense) ScaleRows(s []float64) *Dense {
	if len(s) != m.Rows {
		panic("mat: ScaleRows length mismatch")
	}
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		sv := s[i]
		for j := range row {
			row[j] *= sv
		}
	}
	return out
}

// ScaleRowsInto computes out = diag(s) * m and returns out. out must match
// m's shape; aliasing out with m is allowed.
func (m *Dense) ScaleRowsInto(out *Dense, s []float64) *Dense {
	if len(s) != m.Rows {
		panic("mat: ScaleRowsInto length mismatch")
	}
	checkSameShape("ScaleRowsInto", out, m)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		sv := s[i]
		for j, v := range src {
			dst[j] = v * sv
		}
	}
	return out
}

// HadamardInPlace sets m ∗= b element-wise and returns m.
func (m *Dense) HadamardInPlace(b *Dense) *Dense {
	checkSameShape("HadamardInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] *= v
	}
	return m
}

// TInto writes mᵀ into out and returns out. out must be m.Cols×m.Rows and
// must not alias m.
func (m *Dense) TInto(out *Dense) *Dense {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic("mat: TInto shape mismatch")
	}
	const bs = 32
	for ii := 0; ii < m.Rows; ii += bs {
		iMax := min(ii+bs, m.Rows)
		for jj := 0; jj < m.Cols; jj += bs {
			jMax := min(jj+bs, m.Cols)
			for i := ii; i < iMax; i++ {
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				for j := jj; j < jMax; j++ {
					out.Data[j*m.Rows+i] = row[j]
				}
			}
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	// Two-pass scaling is unnecessary for our magnitudes; plain sum of
	// squares with a running compensation is accurate enough and fast.
	var sum float64
	for _, v := range m.Data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// FrobNorm2 returns the squared Frobenius norm.
func (m *Dense) FrobNorm2() float64 {
	var sum float64
	for _, v := range m.Data {
		sum += v * v
	}
	return sum
}

// FrobDist returns ‖m − b‖_F.
func (m *Dense) FrobDist(b *Dense) float64 {
	checkSameShape("FrobDist", m, b)
	var sum float64
	for i, v := range m.Data {
		d := v - b.Data[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// MaxAbs returns max |m_ij|.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsOrthonormalCols reports whether mᵀm ≈ I within tol.
func (m *Dense) IsOrthonormalCols(tol float64) bool {
	g := m.TMul(m)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// Vec returns the column-major vectorization of m as an (Rows*Cols)-by-1
// vector: vec(M) stacks the columns of M. This convention matches the
// identity vec(AB) = (Bᵀ ⊗ I) vec(A) used in Lemma 3 of the paper.
func (m *Dense) Vec() []float64 {
	out := make([]float64, m.Rows*m.Cols)
	idx := 0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			out[idx] = m.Data[i*m.Cols+j]
			idx++
		}
	}
	return out
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		b.WriteString("[\n")
		for i := 0; i < m.Rows; i++ {
			b.WriteString("  ")
			for j := 0; j < m.Cols; j++ {
				fmt.Fprintf(&b, "% .4g ", m.At(i, j))
			}
			b.WriteString("\n")
		}
		b.WriteString("]")
	}
	return b.String()
}

func checkSameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
