package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestQRReconstruct(t *testing.T) {
	g := rng.New(1)
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {50, 12}, {3, 1}, {128, 16}} {
		a := mat.Gaussian(g, dims[0], dims[1])
		qr := QRFactor(a)
		if !qr.Q.IsOrthonormalCols(1e-10) {
			t.Fatalf("%v: Q not orthonormal", dims)
		}
		if !qr.Q.Mul(qr.R).EqualApprox(a, 1e-10) {
			t.Fatalf("%v: QR != A", dims)
		}
		// R upper triangular.
		for i := 1; i < qr.R.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(qr.R.At(i, j)) > 1e-12 {
					t.Fatalf("%v: R not upper triangular at (%d,%d)", dims, i, j)
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: QR must still reconstruct.
	g := rng.New(2)
	a := mat.Gaussian(g, 10, 3)
	a.SetCol(2, a.Col(1))
	qr := QRFactor(a)
	if !qr.Q.Mul(qr.R).EqualApprox(a, 1e-10) {
		t.Fatal("rank-deficient QR != A")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := mat.New(6, 3)
	qr := QRFactor(a)
	if !qr.Q.Mul(qr.R).EqualApprox(a, 1e-12) {
		t.Fatal("QR of zero matrix != 0")
	}
}

func TestQRPanicsOnWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	QRFactor(mat.New(2, 5))
}

func TestSVDReconstructSquare(t *testing.T) {
	g := rng.New(3)
	a := mat.Gaussian(g, 12, 12)
	d := Factor(a)
	checkSVD(t, a, d, 1e-9)
}

func TestSVDReconstructTall(t *testing.T) {
	g := rng.New(4)
	a := mat.Gaussian(g, 100, 8)
	d := Factor(a)
	checkSVD(t, a, d, 1e-9)
}

func TestSVDReconstructWide(t *testing.T) {
	g := rng.New(5)
	a := mat.Gaussian(g, 7, 40)
	d := Factor(a)
	checkSVD(t, a, d, 1e-9)
}

func checkSVD(t *testing.T, a *mat.Dense, d SVD, tol float64) {
	t.Helper()
	if !d.U.IsOrthonormalCols(1e-8) {
		t.Fatal("U not orthonormal")
	}
	if !d.V.IsOrthonormalCols(1e-8) {
		t.Fatal("V not orthonormal")
	}
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", d.S)
		}
	}
	for _, s := range d.S {
		if s < 0 {
			t.Fatalf("negative singular value: %v", d.S)
		}
	}
	rec := d.Reconstruct()
	if rel := rec.FrobDist(a) / (a.FrobNorm() + 1e-300); rel > tol {
		t.Fatalf("reconstruction relative error %g > %g", rel, tol)
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := mat.Diag([]float64{3, 1, 2})
	d := Factor(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(d.S[i]-want[i]) > 1e-12 {
			t.Fatalf("S=%v want %v", d.S, want)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Outer product: rank 1.
	x := mat.NewFromData(4, 1, []float64{1, 2, 3, 4})
	y := mat.NewFromData(1, 3, []float64{1, 1, 1})
	a := x.Mul(y)
	d := Factor(a)
	if d.S[0] < 1 {
		t.Fatal("leading singular value too small")
	}
	for _, s := range d.S[1:] {
		if s > 1e-10 {
			t.Fatalf("rank-1 matrix has extra singular values: %v", d.S)
		}
	}
	checkSVD(t, a, d, 1e-10)
}

func TestSVDZeroMatrix(t *testing.T) {
	a := mat.New(5, 3)
	d := Factor(a)
	for _, s := range d.S {
		if s != 0 {
			t.Fatalf("zero matrix S=%v", d.S)
		}
	}
}

func TestTruncatedSVDIsBestLowRank(t *testing.T) {
	// Eckart-Young: the rank-r truncation must beat random rank-r
	// candidates in Frobenius error.
	g := rng.New(6)
	a := mat.Gaussian(g, 20, 15)
	r := 5
	d := Truncated(a, r)
	best := d.Reconstruct().FrobDist(a)
	for trial := 0; trial < 10; trial++ {
		u := mat.Gaussian(g, 20, r)
		v := mat.Gaussian(g, r, 15)
		cand := u.Mul(v)
		// Scale candidate optimally: alpha = <A, C>/<C, C>.
		num, den := 0.0, 0.0
		for i := range cand.Data {
			num += a.Data[i] * cand.Data[i]
			den += cand.Data[i] * cand.Data[i]
		}
		if den > 0 {
			cand.ScaleInPlace(num / den)
		}
		if cand.FrobDist(a) < best-1e-9 {
			t.Fatal("random rank-r candidate beat truncated SVD")
		}
	}
}

func TestTruncatedRankClamps(t *testing.T) {
	g := rng.New(7)
	a := mat.Gaussian(g, 6, 4)
	d := Truncated(a, 100)
	if len(d.S) != 4 {
		t.Fatalf("truncation beyond full rank: got %d singular values", len(d.S))
	}
	checkSVD(t, a, d, 1e-9)
}

func TestTruncatedCapturesEnergy(t *testing.T) {
	// Construct an exactly rank-3 matrix; truncation at 3 must be exact.
	g := rng.New(8)
	u := mat.Gaussian(g, 30, 3)
	v := mat.Gaussian(g, 3, 12)
	a := u.Mul(v)
	d := Truncated(a, 3)
	if rel := d.Reconstruct().FrobDist(a) / a.FrobNorm(); rel > 1e-9 {
		t.Fatalf("rank-3 truncation of rank-3 matrix lossy: %g", rel)
	}
}

func TestPInvProperties(t *testing.T) {
	g := rng.New(9)
	for _, dims := range [][2]int{{6, 6}, {10, 4}, {4, 10}} {
		a := mat.Gaussian(g, dims[0], dims[1])
		p := PInv(a)
		if p.Rows != a.Cols || p.Cols != a.Rows {
			t.Fatalf("PInv shape %dx%d", p.Rows, p.Cols)
		}
		// Penrose conditions 1 and 2.
		if !a.Mul(p).Mul(a).EqualApprox(a, 1e-8) {
			t.Fatalf("%v: A A⁺ A != A", dims)
		}
		if !p.Mul(a).Mul(p).EqualApprox(p, 1e-8) {
			t.Fatalf("%v: A⁺ A A⁺ != A⁺", dims)
		}
	}
}

func TestPInvSingular(t *testing.T) {
	// Singular matrix: pinv must not blow up.
	a := mat.NewFromData(2, 2, []float64{1, 2, 2, 4})
	p := PInv(a)
	if !a.Mul(p).Mul(a).EqualApprox(a, 1e-10) {
		t.Fatal("A A⁺ A != A for singular A")
	}
	if p.MaxAbs() > 1e6 {
		t.Fatal("pseudoinverse exploded on singular matrix")
	}
}

func TestPInvIdentity(t *testing.T) {
	p := PInv(mat.Identity(5))
	if !p.EqualApprox(mat.Identity(5), 1e-12) {
		t.Fatal("pinv(I) != I")
	}
}

func TestQuickSVDReconstruct(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		r := 2 + g.Intn(20)
		c := 2 + g.Intn(20)
		a := mat.Gaussian(g, r, c)
		d := Factor(a)
		rel := d.Reconstruct().FrobDist(a) / (a.FrobNorm() + 1e-300)
		return rel < 1e-8 && d.U.IsOrthonormalCols(1e-7) && d.V.IsOrthonormalCols(1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQRReconstruct(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		c := 1 + g.Intn(12)
		r := c + g.Intn(30)
		a := mat.Gaussian(g, r, c)
		qr := QRFactor(a)
		return qr.Q.Mul(qr.R).EqualApprox(a, 1e-9) && qr.Q.IsOrthonormalCols(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSVDSingularValuesMatchGram(t *testing.T) {
	// σᵢ² are the eigenvalues of AᵀA; check trace identity:
	// Σ σᵢ² = ‖A‖_F².
	f := func(seed uint64) bool {
		g := rng.New(seed)
		a := mat.Gaussian(g, 2+g.Intn(15), 2+g.Intn(15))
		d := Factor(a)
		var sum float64
		for _, s := range d.S {
			sum += s * s
		}
		return math.Abs(sum-a.FrobNorm2()) < 1e-8*(1+a.FrobNorm2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	g := rng.New(20)
	x := mat.Gaussian(g, 8, 8)
	a := x.TMul(x) // SPD with probability 1
	for i := 0; i < 8; i++ {
		a.Set(i, i, a.At(i, i)+0.1) // guarantee definiteness
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !l.MulT(l).EqualApprox(a, 1e-9) {
		t.Fatal("L Lᵀ != A")
	}
	// L lower triangular
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("L not lower triangular")
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mat.NewFromData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	if _, err := Cholesky(mat.New(3, 3)); err == nil {
		t.Fatal("expected failure on zero matrix")
	}
	if _, err := Cholesky(mat.New(2, 3)); err == nil {
		t.Fatal("expected failure on non-square")
	}
}

func TestSolveCholesky(t *testing.T) {
	g := rng.New(21)
	x := mat.Gaussian(g, 6, 6)
	a := x.TMul(x).Add(mat.Identity(6))
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.Gaussian(g, 6, 4)
	sol := SolveCholesky(l, b)
	if !a.Mul(sol).EqualApprox(b, 1e-8) {
		t.Fatal("Cholesky solve residual too large")
	}
}

func TestSolveGramMatchesPInv(t *testing.T) {
	g := rng.New(22)
	x := mat.Gaussian(g, 7, 5)
	gram := x.TMul(x) // SPD 5x5
	b := mat.Gaussian(g, 3, 5)
	fast := SolveGram(b, gram)
	slow := b.Mul(PInv(gram))
	if !fast.EqualApprox(slow, 1e-7) {
		t.Fatal("SolveGram disagrees with pseudoinverse on SPD input")
	}
}

func TestSolveGramSingularFallback(t *testing.T) {
	// Singular Gram: must fall back to the pseudoinverse, not error.
	gram := mat.NewFromData(2, 2, []float64{1, 1, 1, 1})
	b := mat.NewFromData(1, 2, []float64{2, 2})
	sol := SolveGram(b, gram)
	// minimum-norm solution of x G = b is [1, 1].
	if math.Abs(sol.At(0, 0)-1) > 1e-9 || math.Abs(sol.At(0, 1)-1) > 1e-9 {
		t.Fatalf("fallback solution %v", sol)
	}
}

func TestQuickCholeskySolve(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		n := 2 + g.Intn(10)
		x := mat.Gaussian(g, n+2, n)
		a := x.TMul(x)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+0.5)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		b := mat.Gaussian(g, n, 3)
		return a.Mul(SolveCholesky(l, b)).EqualApprox(b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
