package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func randomIrregular(g *rng.RNG, k, j, maxI int) *Irregular {
	slices := make([]*mat.Dense, k)
	for kk := 0; kk < k; kk++ {
		slices[kk] = mat.Gaussian(g, 1+g.Intn(maxI), j)
	}
	return MustIrregular(slices)
}

func randomDense3(g *rng.RNG, i, j, k int) *Dense3 {
	slices := make([]*mat.Dense, k)
	for kk := 0; kk < k; kk++ {
		slices[kk] = mat.Gaussian(g, i, j)
	}
	return MustDense3(slices)
}

func TestNewIrregularValidation(t *testing.T) {
	if _, err := NewIrregular(nil); err == nil {
		t.Fatal("expected error for empty slice list")
	}
	bad := []*mat.Dense{mat.New(3, 4), mat.New(2, 5)}
	if _, err := NewIrregular(bad); err == nil {
		t.Fatal("expected error for mismatched columns")
	}
	zero := []*mat.Dense{mat.New(0, 4)}
	if _, err := NewIrregular(zero); err == nil {
		t.Fatal("expected error for zero-row slice")
	}
	ok := []*mat.Dense{mat.New(3, 4), mat.New(7, 4)}
	ten, err := NewIrregular(ok)
	if err != nil {
		t.Fatal(err)
	}
	if ten.K() != 2 || ten.J != 4 {
		t.Fatalf("K=%d J=%d", ten.K(), ten.J)
	}
}

func TestIrregularStats(t *testing.T) {
	g := rng.New(1)
	slices := []*mat.Dense{mat.Gaussian(g, 3, 4), mat.Gaussian(g, 8, 4), mat.Gaussian(g, 5, 4)}
	ten := MustIrregular(slices)
	rows := ten.Rows()
	if rows[0] != 3 || rows[1] != 8 || rows[2] != 5 {
		t.Fatalf("Rows=%v", rows)
	}
	if ten.MaxRows() != 8 {
		t.Fatalf("MaxRows=%d", ten.MaxRows())
	}
	if ten.NumElements() != (3+8+5)*4 {
		t.Fatalf("NumElements=%d", ten.NumElements())
	}
	if ten.SizeBytes() != int64(ten.NumElements())*8 {
		t.Fatal("SizeBytes inconsistent")
	}
	var want float64
	for _, s := range slices {
		want += s.FrobNorm2()
	}
	if math.Abs(ten.Norm2()-want) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
	if math.Abs(ten.Norm()-math.Sqrt(want)) > 1e-12 {
		t.Fatal("Norm wrong")
	}
}

func TestDense3Validation(t *testing.T) {
	if _, err := NewDense3(nil); err == nil {
		t.Fatal("expected error for empty")
	}
	bad := []*mat.Dense{mat.New(2, 3), mat.New(3, 3)}
	if _, err := NewDense3(bad); err == nil {
		t.Fatal("expected error for ragged slices")
	}
}

func TestDense3AtSet(t *testing.T) {
	y := MustDense3([]*mat.Dense{mat.New(2, 3), mat.New(2, 3)})
	y.Set(1, 2, 1, 9)
	if y.At(1, 2, 1) != 9 || y.At(1, 2, 0) != 0 {
		t.Fatal("At/Set wrong")
	}
}

func TestMatricizeShapes(t *testing.T) {
	g := rng.New(2)
	y := randomDense3(g, 3, 4, 5)
	m1 := y.Matricize(1)
	m2 := y.Matricize(2)
	m3 := y.Matricize(3)
	if m1.Rows != 3 || m1.Cols != 20 {
		t.Fatalf("mode-1 shape %dx%d", m1.Rows, m1.Cols)
	}
	if m2.Rows != 4 || m2.Cols != 15 {
		t.Fatalf("mode-2 shape %dx%d", m2.Rows, m2.Cols)
	}
	if m3.Rows != 5 || m3.Cols != 12 {
		t.Fatalf("mode-3 shape %dx%d", m3.Rows, m3.Cols)
	}
	// Element checks: x(i,j,k) appears at the documented positions.
	if m1.At(1, 2*4+3) != y.At(1, 3, 2) {
		t.Fatal("mode-1 ordering wrong")
	}
	if m2.At(3, 4*3+2) != y.At(2, 3, 4) {
		t.Fatal("mode-2 ordering wrong")
	}
	// mode 3: row k is column-major vec: index j*I+i
	if m3.At(4, 3*3+2) != y.At(2, 3, 4) {
		t.Fatal("mode-3 ordering wrong")
	}
}

func TestMatricizeNormPreserved(t *testing.T) {
	g := rng.New(3)
	y := randomDense3(g, 4, 5, 6)
	for mode := 1; mode <= 3; mode++ {
		if math.Abs(y.Matricize(mode).FrobNorm2()-y.Norm2()) > 1e-10 {
			t.Fatalf("mode-%d unfolding changed the norm", mode)
		}
	}
}

func TestMatricizePanicsOnBadMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := rng.New(4)
	randomDense3(g, 2, 2, 2).Matricize(4)
}

func TestCPReconstructMatchesUnfoldingIdentity(t *testing.T) {
	// X(1) = A (C ⊙ B)ᵀ for X = [[A,B,C]].
	g := rng.New(6)
	a := mat.Gaussian(g, 3, 2)
	b := mat.Gaussian(g, 4, 2)
	c := mat.Gaussian(g, 5, 2)
	x := CPReconstruct(a, b, c)
	lhs := x.Matricize(1)
	rhs := a.MulT(mat.KhatriRao(c, b))
	if !lhs.EqualApprox(rhs, 1e-11) {
		t.Fatal("X(1) != A(C⊙B)ᵀ")
	}
	lhs2 := x.Matricize(2)
	rhs2 := b.MulT(mat.KhatriRao(c, a))
	if !lhs2.EqualApprox(rhs2, 1e-11) {
		t.Fatal("X(2) != B(C⊙A)ᵀ")
	}
	lhs3 := x.Matricize(3)
	rhs3 := c.MulT(mat.KhatriRao(b, a))
	if !lhs3.EqualApprox(rhs3, 1e-11) {
		t.Fatal("X(3) != C(B⊙A)ᵀ")
	}
}

func TestMTTKRPMatchesExplicit(t *testing.T) {
	g := rng.New(7)
	y := randomDense3(g, 4, 5, 6)
	r := 3
	a := mat.Gaussian(g, 4, r)
	b := mat.Gaussian(g, 5, r)
	c := mat.Gaussian(g, 6, r)

	got1 := y.MTTKRP(1, c, b)
	want1 := y.Matricize(1).Mul(mat.KhatriRao(c, b))
	if !got1.EqualApprox(want1, 1e-10) {
		t.Fatal("MTTKRP mode 1 mismatch")
	}
	got2 := y.MTTKRP(2, c, a)
	want2 := y.Matricize(2).Mul(mat.KhatriRao(c, a))
	if !got2.EqualApprox(want2, 1e-10) {
		t.Fatal("MTTKRP mode 2 mismatch")
	}
	got3 := y.MTTKRP(3, b, a)
	want3 := y.Matricize(3).Mul(mat.KhatriRao(b, a))
	if !got3.EqualApprox(want3, 1e-10) {
		t.Fatal("MTTKRP mode 3 mismatch")
	}
}

func TestMTTKRPPanicsOnBadMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := rng.New(8)
	y := randomDense3(g, 2, 2, 2)
	y.MTTKRP(0, mat.New(2, 2), mat.New(2, 2))
}

func TestQuickMTTKRPAgainstExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		i, j, k, r := 2+g.Intn(5), 2+g.Intn(5), 2+g.Intn(5), 1+g.Intn(4)
		y := randomDense3(g, i, j, k)
		a := mat.Gaussian(g, i, r)
		b := mat.Gaussian(g, j, r)
		c := mat.Gaussian(g, k, r)
		ok1 := y.MTTKRP(1, c, b).EqualApprox(y.Matricize(1).Mul(mat.KhatriRao(c, b)), 1e-9)
		ok2 := y.MTTKRP(2, c, a).EqualApprox(y.Matricize(2).Mul(mat.KhatriRao(c, a)), 1e-9)
		ok3 := y.MTTKRP(3, b, a).EqualApprox(y.Matricize(3).Mul(mat.KhatriRao(b, a)), 1e-9)
		return ok1 && ok2 && ok3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIrregularNormMatchesSliceSum(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		ten := randomIrregular(g, 1+g.Intn(6), 1+g.Intn(6), 10)
		var want float64
		for _, s := range ten.Slices {
			want += s.FrobNorm2()
		}
		return math.Abs(ten.Norm2()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
