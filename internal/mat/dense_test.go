package mat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndAt(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2)=%v want 7.5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("zero value not zero")
	}
}

func TestNewFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromData(2, 3, make([]float64, 5))
}

func TestNewFromFunc(t *testing.T) {
	m := NewFromFunc(2, 3, func(i, j int) float64 { return float64(10*i + j) })
	if m.At(1, 2) != 12 || m.At(0, 1) != 1 {
		t.Fatalf("NewFromFunc wrong values: %v", m)
	}
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d]=%v", i, j, id.At(i, j))
			}
		}
	}
	d := Diag([]float64{1, 2, 3})
	if d.At(0, 0) != 1 || d.At(1, 1) != 2 || d.At(2, 2) != 3 || d.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d)
	}
}

func TestTranspose(t *testing.T) {
	g := rng.New(1)
	m := Gaussian(g, 37, 53)
	tt := m.T().T()
	if !m.EqualApprox(tt, 0) {
		t.Fatal("double transpose is not identity")
	}
	mt := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	g := rng.New(2)
	a := Gaussian(g, 5, 7)
	b := Gaussian(g, 5, 7)
	sum := a.Add(b)
	diff := sum.Sub(b)
	if !diff.EqualApprox(a, 1e-14) {
		t.Fatal("(a+b)-b != a")
	}
	s := a.Scale(2.0).Sub(a).Sub(a)
	if s.MaxAbs() > 1e-14 {
		t.Fatal("2a - a - a != 0")
	}
	c := a.Clone()
	c.AddScaledInPlace(-1, a)
	if c.MaxAbs() != 0 {
		t.Fatal("AddScaledInPlace(-1, a) on clone not zero")
	}
}

func TestHadamard(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	b := NewFromData(2, 2, []float64{5, 6, 7, 8})
	h := a.Hadamard(b)
	want := NewFromData(2, 2, []float64{5, 12, 21, 32})
	if !h.EqualApprox(want, 0) {
		t.Fatalf("Hadamard wrong: %v", h)
	}
}

func TestScaleColumnsMatchesDiagMul(t *testing.T) {
	g := rng.New(3)
	a := Gaussian(g, 6, 4)
	s := []float64{2, -1, 0.5, 3}
	got := a.ScaleColumns(s)
	want := a.Mul(Diag(s))
	if !got.EqualApprox(want, 1e-13) {
		t.Fatal("ScaleColumns != A*diag(s)")
	}
}

func TestScaleRowsMatchesDiagMul(t *testing.T) {
	g := rng.New(4)
	a := Gaussian(g, 4, 6)
	s := []float64{2, -1, 0.5, 3}
	got := a.ScaleRows(s)
	want := Diag(s).Mul(a)
	if !got.EqualApprox(want, 1e-13) {
		t.Fatal("ScaleRows != diag(s)*A")
	}
}

func TestMulIdentity(t *testing.T) {
	g := rng.New(5)
	a := Gaussian(g, 9, 6)
	if !a.Mul(Identity(6)).EqualApprox(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Identity(9).Mul(a).EqualApprox(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulAssociativity(t *testing.T) {
	g := rng.New(6)
	a := Gaussian(g, 4, 5)
	b := Gaussian(g, 5, 6)
	c := Gaussian(g, 6, 3)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	if !left.EqualApprox(right, 1e-11) {
		t.Fatal("matrix multiply not associative within tolerance")
	}
}

func TestTMulMatchesExplicitTranspose(t *testing.T) {
	g := rng.New(7)
	a := Gaussian(g, 8, 5)
	b := Gaussian(g, 8, 6)
	got := a.TMul(b)
	want := a.T().Mul(b)
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("TMul != T().Mul")
	}
}

func TestTMulParallelPath(t *testing.T) {
	g := rng.New(8)
	// Rows >= 128 triggers the parallel accumulation path.
	a := Gaussian(g, 300, 10)
	b := Gaussian(g, 300, 7)
	got := a.TMul(b)
	want := a.T().Mul(b)
	if !got.EqualApprox(want, 1e-11) {
		t.Fatal("parallel TMul mismatch")
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	g := rng.New(9)
	a := Gaussian(g, 6, 5)
	b := Gaussian(g, 7, 5)
	got := a.MulT(b)
	want := a.Mul(b.T())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("MulT != Mul(T())")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	g := rng.New(10)
	a := Gaussian(g, 5, 4)
	x := make([]float64, 4)
	g.NormSlice(x)
	got := a.MulVec(x)
	want := a.Mul(NewFromData(4, 1, x))
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-13) {
			t.Fatal("MulVec mismatch")
		}
	}
	y := make([]float64, 5)
	g.NormSlice(y)
	gotT := a.TMulVec(y)
	wantT := a.T().MulVec(y)
	for i := range gotT {
		if !almostEq(gotT[i], wantT[i], 1e-13) {
			t.Fatal("TMulVec mismatch")
		}
	}
}

func TestSubMatrixAndSetSubMatrix(t *testing.T) {
	m := NewFromFunc(5, 5, func(i, j int) float64 { return float64(i*5 + j) })
	s := m.SubMatrix(1, 2, 2, 3)
	if s.Rows != 2 || s.Cols != 3 || s.At(0, 0) != 7 || s.At(1, 2) != 14 {
		t.Fatalf("SubMatrix wrong: %v", s)
	}
	z := New(5, 5)
	z.SetSubMatrix(1, 2, s)
	if z.At(1, 2) != 7 || z.At(2, 4) != 14 || z.At(0, 0) != 0 {
		t.Fatalf("SetSubMatrix wrong: %v", z)
	}
	rb := m.RowBlock(2, 4)
	if rb.Rows != 2 || rb.At(0, 0) != 10 || rb.At(1, 4) != 19 {
		t.Fatalf("RowBlock wrong: %v", rb)
	}
}

func TestColSetCol(t *testing.T) {
	m := New(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	c := m.Col(1)
	if c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("Col/SetCol wrong: %v", c)
	}
	if m.At(0, 0) != 0 {
		t.Fatal("SetCol touched other column")
	}
}

func TestFrobNorm(t *testing.T) {
	m := NewFromData(2, 2, []float64{3, 0, 4, 0})
	if !almostEq(m.FrobNorm(), 5, 1e-14) {
		t.Fatalf("FrobNorm=%v want 5", m.FrobNorm())
	}
	if !almostEq(m.FrobNorm2(), 25, 1e-12) {
		t.Fatalf("FrobNorm2=%v want 25", m.FrobNorm2())
	}
	if !almostEq(m.FrobDist(m), 0, 0) {
		t.Fatal("FrobDist(self) != 0")
	}
}

func TestVecIsColumnMajor(t *testing.T) {
	m := NewFromData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	v := m.Vec()
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vec=%v want %v", v, want)
		}
	}
}

func TestVecABIdentity(t *testing.T) {
	// vec(AB) = (Bᵀ ⊗ I) vec(A) — the identity Lemma 3 depends on.
	g := rng.New(11)
	a := Gaussian(g, 3, 4)
	b := Gaussian(g, 4, 5)
	lhs := a.Mul(b).Vec()
	kron := Kronecker(b.T(), Identity(3))
	rhs := kron.MulVec(a.Vec())
	for i := range lhs {
		if !almostEq(lhs[i], rhs[i], 1e-12) {
			t.Fatal("vec(AB) != (Bᵀ⊗I)vec(A)")
		}
	}
}

func TestHConcatVConcat(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	b := NewFromData(2, 1, []float64{5, 6})
	h := HConcat(a, b)
	if h.Rows != 2 || h.Cols != 3 || h.At(0, 2) != 5 || h.At(1, 2) != 6 || h.At(1, 1) != 4 {
		t.Fatalf("HConcat wrong: %v", h)
	}
	c := NewFromData(1, 2, []float64{7, 8})
	v := VConcat(a, c)
	if v.Rows != 3 || v.Cols != 2 || v.At(2, 0) != 7 || v.At(2, 1) != 8 {
		t.Fatalf("VConcat wrong: %v", v)
	}
}

func TestKroneckerSmall(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	b := NewFromData(2, 2, []float64{0, 5, 6, 7})
	k := Kronecker(a, b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("Kronecker shape %dx%d", k.Rows, k.Cols)
	}
	want := NewFromData(4, 4, []float64{
		0, 5, 0, 10,
		6, 7, 12, 14,
		0, 15, 0, 20,
		18, 21, 24, 28,
	})
	if !k.EqualApprox(want, 0) {
		t.Fatalf("Kronecker values wrong:\n%v", k)
	}
}

func TestKroneckerMixedProduct(t *testing.T) {
	// (A ⊗ B)(C ⊗ D) = AC ⊗ BD — used in the proof of Lemma 1.
	g := rng.New(12)
	a := Gaussian(g, 2, 3)
	b := Gaussian(g, 3, 2)
	c := Gaussian(g, 3, 2)
	d := Gaussian(g, 2, 4)
	lhs := Kronecker(a, b).Mul(Kronecker(c, d))
	rhs := Kronecker(a.Mul(c), b.Mul(d))
	if !lhs.EqualApprox(rhs, 1e-11) {
		t.Fatal("mixed-product property violated")
	}
}

func TestKhatriRaoColumns(t *testing.T) {
	g := rng.New(13)
	a := Gaussian(g, 4, 3)
	b := Gaussian(g, 5, 3)
	kr := KhatriRao(a, b)
	if kr.Rows != 20 || kr.Cols != 3 {
		t.Fatalf("KhatriRao shape %dx%d", kr.Rows, kr.Cols)
	}
	for r := 0; r < 3; r++ {
		want := KronVec(a.Col(r), b.Col(r))
		got := kr.Col(r)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-14) {
				t.Fatalf("KhatriRao column %d mismatch", r)
			}
		}
	}
}

func TestKhatriRaoGramIdentity(t *testing.T) {
	// (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB — the Hadamard/Gram identity ALS uses.
	g := rng.New(14)
	a := Gaussian(g, 6, 4)
	b := Gaussian(g, 5, 4)
	kr := KhatriRao(a, b)
	lhs := kr.TMul(kr)
	rhs := a.TMul(a).Hadamard(b.TMul(b))
	if !lhs.EqualApprox(rhs, 1e-11) {
		t.Fatal("Khatri-Rao Gram identity violated")
	}
}

func TestIsOrthonormalCols(t *testing.T) {
	if !Identity(5).IsOrthonormalCols(1e-14) {
		t.Fatal("identity not orthonormal?")
	}
	g := rng.New(15)
	if Gaussian(g, 5, 5).IsOrthonormalCols(1e-6) {
		t.Fatal("random Gaussian unlikely to be orthonormal")
	}
}

func TestDotAndNorm2(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

// Property-based tests via testing/quick.

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		r := 1 + g.Intn(20)
		c := 1 + g.Intn(20)
		m := Gaussian(g, r, c)
		return m.T().T().EqualApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulDistributes(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		r := 1 + g.Intn(10)
		k := 1 + g.Intn(10)
		c := 1 + g.Intn(10)
		a := Gaussian(g, r, k)
		b := Gaussian(g, k, c)
		cc := Gaussian(g, k, c)
		lhs := a.Mul(b.Add(cc))
		rhs := a.Mul(b).Add(a.Mul(cc))
		return lhs.EqualApprox(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrobNormScales(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		m := Gaussian(g, 1+g.Intn(15), 1+g.Intn(15))
		alpha := 2*g.Float64() - 1
		return almostEq(m.Scale(alpha).FrobNorm(), math.Abs(alpha)*m.FrobNorm(), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKroneckerTranspose(t *testing.T) {
	// (A ⊗ B)ᵀ = Aᵀ ⊗ Bᵀ
	f := func(seed uint64) bool {
		g := rng.New(seed)
		a := Gaussian(g, 1+g.Intn(6), 1+g.Intn(6))
		b := Gaussian(g, 1+g.Intn(6), 1+g.Intn(6))
		return Kronecker(a, b).T().EqualApprox(Kronecker(a.T(), b.T()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
