package repro

import (
	"context"
	"testing"

	"repro/internal/parafac2"
)

// The root package is a thin re-export layer; these tests exercise the full
// public workflow a downstream user would run.

func TestPublicQuickstartFlow(t *testing.T) {
	g := NewRNG(1)
	ten := LowRankTensor(g, []int{60, 80, 100, 70}, 30, 5, 0.02)

	cfg := DefaultConfig()
	cfg.Rank = 5
	cfg.MaxIters = 30
	cfg.Threads = 2

	eng := NewEngine(WithBaseConfig(cfg))
	defer eng.Close()
	res, err := eng.Decompose(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.9 {
		t.Fatalf("public DPar2 fitness %v", res.Fitness)
	}
	if res.V.Rows != 30 || res.V.Cols != 5 {
		t.Fatalf("V shape %dx%d", res.V.Rows, res.V.Cols)
	}
	if got := eng.Fitness(ten, res); got != res.Fitness {
		t.Fatalf("Fitness helper %v != result %v", got, res.Fitness)
	}
}

func TestPublicAllMethodsAgree(t *testing.T) {
	g := NewRNG(2)
	ten := LowRankTensor(g, []int{50, 70, 60}, 25, 4, 0.01)
	cfg := DefaultConfig()
	cfg.Rank = 4
	cfg.MaxIters = 60
	cfg.Threads = 2

	type runner struct {
		name string
		fn   func(context.Context, *Irregular, Config) (*Result, error)
	}
	for _, r := range []runner{
		{"DPar2", parafac2.DPar2Ctx}, {"ALS", parafac2.ALSCtx},
		{"RDALS", parafac2.RDALSCtx}, {"SPARTan", parafac2.SPARTanCtx},
	} {
		res, err := r.fn(context.Background(), ten, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Fitness < 0.95 {
			t.Fatalf("%s fitness %v on near-exact data", r.name, res.Fitness)
		}
	}
}

func TestPublicCompressedWorkflow(t *testing.T) {
	g := NewRNG(3)
	ten := LowRankTensor(g, []int{80, 90, 100}, 40, 5, 0.02)
	cfg := DefaultConfig()
	cfg.Rank = 5
	cfg.MaxIters = 20
	cfg.Threads = 2

	eng := NewEngine(WithBaseConfig(cfg))
	defer eng.Close()
	ctx := context.Background()
	comp, err := eng.Compress(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	if comp.SizeBytes() >= ten.SizeBytes() {
		t.Fatal("compression did not shrink the tensor")
	}
	res, err := eng.DecomposeCompressed(ctx, comp)
	if err != nil {
		t.Fatal(err)
	}
	if fit := eng.Fitness(ten, res); fit < 0.9 {
		t.Fatalf("compressed-workflow fitness %v", fit)
	}
}

func TestPublicGenerators(t *testing.T) {
	g := NewRNG(4)
	if ten := RandomTensor(g, 10, 8, 4); ten.K() != 4 || ten.J != 8 {
		t.Fatal("RandomTensor wrong shape")
	}
	stock, sectors := NewStockTensor(g, 6, 50, 120, USMarket())
	if stock.K() != 6 || stock.J != 88 || len(sectors) != 6 {
		t.Fatal("NewStockTensor wrong shape")
	}
	if len(StockFeatureNames()) != 88 {
		t.Fatal("StockFeatureNames wrong length")
	}
	if sp := NewSpectrogramTensor(g, 4, 20, 50, 32); sp.K() != 4 || sp.J != 32 {
		t.Fatal("NewSpectrogramTensor wrong shape")
	}
	if vf := NewVideoFeatureTensor(g, 4, 20, 40, 16, 3); vf.K() != 4 || vf.J != 16 {
		t.Fatal("NewVideoFeatureTensor wrong shape")
	}
	if tr := NewTrafficTensor(g, 4, 12, 24); tr.K() != 4 || tr.J != 24 {
		t.Fatal("NewTrafficTensor wrong shape")
	}
}

func TestPublicAnalytics(t *testing.T) {
	if c := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); c < 0.999 {
		t.Fatalf("Pearson %v", c)
	}
	g := NewRNG(5)
	m := NewMatrix(4, 10)
	g.NormSlice(m.Data)
	corr := CorrelationMatrix(m)
	if corr.Rows != 4 || corr.At(2, 2) < 0.999 {
		t.Fatal("CorrelationMatrix wrong")
	}
	sim := SimilarityGraph(5, func(i, j int) float64 { return 1.0 / float64(1+i+j) })
	nn := KNN(sim, 0, 2)
	if len(nn) != 2 || nn[0].Index != 1 {
		t.Fatalf("KNN wrong: %v", nn)
	}
	scores := RWR(sim, 0, DefaultRWRConfig())
	if len(scores) != 5 {
		t.Fatal("RWR wrong length")
	}
	a := NewMatrixFromData(2, 2, []float64{1, 0, 0, 1})
	b := NewMatrixFromData(2, 2, []float64{1, 0, 0, 1})
	if s := StockSimilarity(a, b, 0.01); s != 1 {
		t.Fatalf("identical matrices similarity %v", s)
	}
}

func TestPublicNewIrregularValidates(t *testing.T) {
	_, err := NewIrregular([]*Matrix{NewMatrix(3, 4), NewMatrix(2, 5)})
	if err == nil {
		t.Fatal("expected column-mismatch error")
	}
}
