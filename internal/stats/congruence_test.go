package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestCongruenceBasics(t *testing.T) {
	x := []float64{1, 2, 3}
	if c := Congruence(x, x); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self congruence %v", c)
	}
	y := []float64{-2, -4, -6}
	if c := Congruence(x, y); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti-parallel congruence %v", c)
	}
	if c := Congruence(x, []float64{0, 0, 0}); c != 0 {
		t.Fatalf("zero-vector congruence %v", c)
	}
	// Orthogonal vectors.
	if c := Congruence([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Fatalf("orthogonal congruence %v", c)
	}
}

func TestCongruenceNotCentered(t *testing.T) {
	// Unlike Pearson, congruence of two all-positive constant-ish vectors
	// is near 1 even though Pearson would be 0/undefined.
	x := []float64{1, 1, 1}
	y := []float64{2, 2, 2.0001}
	if c := Congruence(x, y); c < 0.999 {
		t.Fatalf("constant-direction congruence %v", c)
	}
}

func TestFactorMatchScoreIdentity(t *testing.T) {
	g := rng.New(1)
	a := mat.Gaussian(g, 20, 4)
	if s := FactorMatchScore(a, a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self match %v", s)
	}
}

func TestFactorMatchScorePermutationAndSignInvariant(t *testing.T) {
	g := rng.New(2)
	a := mat.Gaussian(g, 15, 4)
	// b = a with columns permuted (2,0,3,1) and signs flipped.
	b := mat.New(15, 4)
	perm := []int{2, 0, 3, 1}
	signs := []float64{-1, 1, -1, 1}
	for j, p := range perm {
		col := a.Col(p)
		for i := range col {
			col[i] *= signs[j]
		}
		b.SetCol(j, col)
	}
	if s := FactorMatchScore(a, b); math.Abs(s-1) > 1e-12 {
		t.Fatalf("permuted/flipped match %v, want 1", s)
	}
}

func TestFactorMatchScoreRandomLow(t *testing.T) {
	g := rng.New(3)
	a := mat.Gaussian(g, 200, 4)
	b := mat.Gaussian(g, 200, 4)
	if s := FactorMatchScore(a, b); s > 0.5 {
		t.Fatalf("independent Gaussian factors matched at %v", s)
	}
}

func TestQuickCongruenceBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		n := 2 + g.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		g.NormSlice(x)
		g.NormSlice(y)
		c := Congruence(x, y)
		return c >= -1-1e-9 && c <= 1+1e-9 && math.Abs(c-Congruence(y, x)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFactorMatchBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		r := 1 + g.Intn(5)
		n := r + g.Intn(30)
		a := mat.Gaussian(g, n, r)
		b := mat.Gaussian(g, n, r)
		s := FactorMatchScore(a, b)
		return s >= 0 && s <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
