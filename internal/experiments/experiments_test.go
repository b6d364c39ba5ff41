package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/rng"
)

// testEngine is a two-wide Engine whose calls default to rank 5 and at most
// 5 iterations; the test closes it.
func testEngine(tb testing.TB) *repro.Engine {
	cfg := repro.DefaultConfig()
	cfg.Rank = 5
	cfg.MaxIters = 5
	eng := repro.NewEngine(repro.WithEngineThreads(2), repro.WithBaseConfig(cfg))
	tb.Cleanup(eng.Close)
	return eng
}

func TestLoadAllDatasets(t *testing.T) {
	ds := LoadAll(1, ScaleTest)
	if len(ds) != 8 {
		t.Fatalf("want 8 datasets, got %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		if d.Tensor.K() == 0 || d.Tensor.J == 0 {
			t.Fatalf("%s: degenerate tensor", d.Name)
		}
		if d.PaperMaxI == 0 || d.PaperJ == 0 || d.PaperK == 0 {
			t.Fatalf("%s: missing paper dims", d.Name)
		}
	}
	for _, want := range []string{"FMA", "Urban", "US Stock", "KR Stock", "Activity", "Action", "Traffic", "PEMS-SF"} {
		if !names[want] {
			t.Fatalf("missing dataset %q", want)
		}
	}
}

// TestLoadByName checks that Load builds each dataset bit for bit as
// LoadAll does, at both scales.
func TestLoadByName(t *testing.T) {
	for _, sc := range []Scale{ScaleTest, ScaleBench} {
		for _, want := range LoadAll(1, sc) {
			d, ok := Load(1, sc, want.Name)
			if !ok || d.Name != want.Name || d.Summary != want.Summary || d.PaperK != want.PaperK {
				t.Fatalf("scale %d: Load(%q) = %q, %v", sc, want.Name, d.Name, ok)
			}
			if !slices.Equal(d.Sectors, want.Sectors) {
				t.Fatalf("scale %d: %s sectors differ", sc, want.Name)
			}
			if d.Tensor.K() != want.Tensor.K() || d.Tensor.J != want.Tensor.J {
				t.Fatalf("scale %d: %s shape differs", sc, want.Name)
			}
			for k, s := range d.Tensor.Slices {
				w := want.Tensor.Slices[k]
				if s.Rows != w.Rows || s.Cols != w.Cols || !slices.EqualFunc(s.Data, w.Data, sameBits) {
					t.Fatalf("scale %d: %s slice %d differs", sc, want.Name, k)
				}
			}
		}
	}
	if d, _ := Load(1, ScaleTest, "US Stock"); d.Sectors == nil {
		t.Fatal("stock dataset missing sectors")
	}
	if _, ok := Load(1, ScaleTest, "nope"); ok {
		t.Fatal("Load of unknown name succeeded")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestFig1OnSubset(t *testing.T) {
	ds := LoadAll(2, ScaleTest)[:2]
	results, err := Fig1(context.Background(), testEngine(t), ds, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*1*4 {
		t.Fatalf("want 8 results, got %d", len(results))
	}
	for _, r := range results {
		if r.TotalTime <= 0 {
			t.Fatalf("%s/%s: no time recorded", r.Dataset, r.Method)
		}
		if r.Fitness < -0.5 || r.Fitness > 1.0001 {
			t.Fatalf("%s/%s: fitness %v out of range", r.Dataset, r.Method, r.Fitness)
		}
	}
	var buf bytes.Buffer
	Fig1Table(results).Fprint(&buf)
	if !strings.Contains(buf.String(), "DPar2") {
		t.Fatal("table missing method name")
	}
}

func TestFig9And10Tables(t *testing.T) {
	ds := LoadAll(3, ScaleTest)[:2]
	results, err := Fig9(context.Background(), testEngine(t), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Preprocessing only exists for DPar2 and RD-ALS.
	for _, r := range results {
		switch r.Method {
		case "DPar2", "RD-ALS":
			if r.PreprocessTime <= 0 {
				t.Fatalf("%s: no preprocess time", r.Method)
			}
			if r.PreprocessedBytes >= r.InputBytes {
				t.Fatalf("%s on %s: preprocessed %d >= input %d", r.Method, r.Dataset, r.PreprocessedBytes, r.InputBytes)
			}
		default:
			if r.PreprocessedBytes != r.InputBytes {
				t.Fatalf("%s: should iterate on raw input", r.Method)
			}
		}
	}
	var buf bytes.Buffer
	Fig9aTable(results).Fprint(&buf)
	Fig9bTable(results).Fprint(&buf)
	Fig10Table(results).Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 9(a)", "Fig. 9(b)", "Fig. 10", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFig11aSizes(t *testing.T) {
	s := Fig11aSizes(10)
	if len(s) != 5 {
		t.Fatalf("want 5 sizes, got %d", len(s))
	}
	if s[0] != [3]int{100, 100, 100} || s[4] != [3]int{200, 200, 400} {
		t.Fatalf("scaled sizes wrong: %v", s)
	}
	if Fig11aSizes(0)[0] != [3]int{1000, 1000, 1000} {
		t.Fatal("unscaled sizes wrong")
	}
}

func TestFig11aSweepTiny(t *testing.T) {
	results, err := Fig11a(context.Background(), testEngine(t), 4, [][3]int{{20, 15, 6}, {25, 15, 8}})
	if err != nil {
		t.Fatal(err)
	}
	n := len(repro.Methods())
	if len(results) != 2*n {
		t.Fatalf("want one result per method per point, got %d", len(results))
	}
	methods := map[string]bool{}
	for i, r := range results {
		methods[r.Method] = true
		if r.Dataset != []string{"20x15x6", "25x15x8"}[i/n] || r.Method != results[i%n].Method {
			t.Fatalf("result %d is %s on %s", i, r.Method, r.Dataset)
		}
	}
	if len(methods) != n {
		t.Fatalf("point missing methods: %v", methods)
	}
	var buf bytes.Buffer
	Fig11aTable(results).Fprint(&buf)
	if !strings.Contains(buf.String(), "20x15x6") {
		t.Fatal("table missing size row")
	}
}

func TestFig11bSweepTiny(t *testing.T) {
	results, err := Fig11b(context.Background(), testEngine(t), 5, 25, 20, 6, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	n := len(repro.Methods())
	if len(results) != 2*n || results[0].Rank != 3 || results[n].Rank != 5 {
		t.Fatalf("rank points wrong: %+v", results)
	}
	var buf bytes.Buffer
	Fig11bTable(results).Fprint(&buf)
	if !strings.Contains(buf.String(), "Fig. 11(b)") {
		t.Fatal("table title missing")
	}
}

func TestFig11cSweepTiny(t *testing.T) {
	pts, err := Fig11c(context.Background(), testEngine(t), 6, 30, 20, 8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	if pts[0].Speedup < 0.99 || pts[0].Speedup > 1.01 {
		t.Fatalf("first point speedup should be 1.0, got %v", pts[0].Speedup)
	}
	var buf bytes.Buffer
	Fig11cTable(pts).Fprint(&buf)
	if !strings.Contains(buf.String(), "threads") {
		t.Fatal("table header missing")
	}
}

func TestFig8Table(t *testing.T) {
	ds := LoadAll(7, ScaleTest)
	var buf bytes.Buffer
	Fig8Table(ds).Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "US Stock") || !strings.Contains(out, "KR Stock") {
		t.Fatal("Fig. 8 table missing stock datasets")
	}
}

func TestTableII(t *testing.T) {
	ds := LoadAll(8, ScaleTest)
	var buf bytes.Buffer
	TableII(ds).Fprint(&buf)
	if !strings.Contains(buf.String(), "7997") {
		t.Fatal("Table II missing paper dimensions")
	}
}

func TestFig12CorrelationStructure(t *testing.T) {
	us, _ := Load(9, ScaleTest, "US Stock")
	corr, labels, err := Fig12(context.Background(), testEngine(t), us)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Rows != 8 || len(labels) != 8 {
		t.Fatalf("corr %dx%d labels %d", corr.Rows, corr.Cols, len(labels))
	}
	// Price features must be strongly mutually correlated (they share the
	// same latent structure): check OPEN-CLOSE correlation is high.
	if corr.At(0, 3) < 0.5 {
		t.Fatalf("OPENING-CLOSING latent correlation %v; expected strong positive", corr.At(0, 3))
	}
	var buf bytes.Buffer
	Fig12Table("Fig. 12(a)", corr, labels).Fprint(&buf)
	if !strings.Contains(buf.String(), "OBV") {
		t.Fatal("Fig. 12 table missing labels")
	}
	pc := PriceIndicatorCorrelations(corr, labels)
	if len(pc) != 4 {
		t.Fatalf("expected 4 indicator summaries, got %d", len(pc))
	}
}

func TestTableIIIDiscovery(t *testing.T) {
	us, _ := Load(10, ScaleTest, "US Stock")
	// pick a target with a short listing so many stocks are comparable
	target := 0
	for i, s := range us.Tensor.Slices {
		if s.Rows < us.Tensor.Slices[target].Rows {
			target = i
		}
	}
	res, err := TableIII(context.Background(), testEngine(t), us, target, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KNN) == 0 || len(res.RWR) == 0 {
		t.Fatal("empty rankings")
	}
	for _, n := range res.KNN {
		if n.Index == target {
			t.Fatal("kNN returned the query itself")
		}
	}
	var buf bytes.Buffer
	TableIIITable(res).Fprint(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatal("Table III title missing")
	}
	p := SectorPrecision(res, res.KNN)
	if p < 0 || p > 1 {
		t.Fatalf("sector precision %v out of range", p)
	}
}

func TestFig12MarketContrast(t *testing.T) {
	// The paper's Fig. 12 finding: OBV correlates positively with prices on
	// the US market but much less on the KR market. Our generators encode
	// this via volume-price coupling; the decomposition must surface it.
	// Latent correlations need enough stocks and history to stabilize, so
	// this test builds mid-size markets directly instead of ScaleTest.
	eng := testEngine(t)
	opts := []repro.Option{repro.WithRank(10), repro.WithMaxIters(15)}
	usTen, usSec := datagen.StockTensor(rng.New(21), 50, 150, 700, datagen.DefaultUSMarket())
	krTen, krSec := datagen.StockTensor(rng.New(22), 50, 150, 700, datagen.DefaultKRMarket())
	us := Dataset{Name: "US Stock", Tensor: usTen, Sectors: usSec}
	kr := Dataset{Name: "KR Stock", Tensor: krTen, Sectors: krSec}
	usCorr, usLabels, err := Fig12(context.Background(), eng, us, opts...)
	if err != nil {
		t.Fatal(err)
	}
	krCorr, krLabels, err := Fig12(context.Background(), eng, kr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	usOBV := PriceIndicatorCorrelations(usCorr, usLabels)["OBV"]
	krOBV := PriceIndicatorCorrelations(krCorr, krLabels)["OBV"]
	if usOBV <= krOBV {
		t.Fatalf("expected US OBV-price correlation (%v) above KR (%v)", usOBV, krOBV)
	}
}

// --- Per-figure benchmarks: each runner at the -scale test sizes on testEngine

// benchRuns runs run b.N times after the set-up and returns the last run's
// value.
func benchRuns[T any](b *testing.B, run func() (T, error)) T {
	b.ResetTimer()
	var v T
	for i := 0; i < b.N; i++ {
		var err error
		if v, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	return v
}

// reportMethods reports, for each of methods in order, the mean of v over
// the points of results, in unit prefixed with the method's label.
func reportMethods(b *testing.B, results []MethodResult, methods []string, unit string, v func(MethodResult) float64) {
	for _, m := range methods {
		var sum, n float64
		for p := range points(results) {
			sum, n = sum+v(of(p, repro.MethodID(m))), n+1
		}
		b.ReportMetric(sum/n, label(repro.MethodID(m))+"-"+unit)
	}
}

// BenchmarkLoadAll times generating the eight Table II stand-ins.
func BenchmarkLoadAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LoadAll(1, ScaleTest)
	}
}

func BenchmarkFig1(b *testing.B) {
	ds, eng := LoadAll(1, ScaleTest), testEngine(b)
	results := benchRuns(b, func() ([]MethodResult, error) { return Fig1(context.Background(), eng, ds, []int{5}) })
	reportMethods(b, results, repro.Methods(), "fitness", func(r MethodResult) float64 { return r.Fitness })
}

// BenchmarkFig9 reports Fig. 9(a)'s preprocessing time and Fig. 10's input
// over preprocessed size for the two methods that preprocess, and Fig.
// 9(b)'s time per iteration for every method.
func BenchmarkFig9(b *testing.B) {
	ds, eng := LoadAll(1, ScaleTest), testEngine(b)
	results := benchRuns(b, func() ([]MethodResult, error) { return Fig9(context.Background(), eng, ds) })
	pre := []string{string(repro.MethodDPar2), string(repro.MethodRDALS)}
	reportMethods(b, results, pre, "preprocess-ms", func(r MethodResult) float64 { return r.PreprocessTime.Seconds() * 1e3 })
	reportMethods(b, results, repro.Methods(), "ms/als-iter", func(r MethodResult) float64 { return r.TimePerIter.Seconds() * 1e3 })
	reportMethods(b, results, pre, "input/compressed", func(r MethodResult) float64 {
		return float64(r.InputBytes) / float64(r.PreprocessedBytes)
	})
}

func BenchmarkFig11a(b *testing.B) {
	eng := testEngine(b)
	results := benchRuns(b, func() ([]MethodResult, error) { return Fig11a(context.Background(), eng, 1, Fig11aSizes(40)) })
	reportMethods(b, results, repro.Methods(), "s", totalSecs)
}

func BenchmarkFig11b(b *testing.B) {
	eng := testEngine(b)
	results := benchRuns(b, func() ([]MethodResult, error) {
		return Fig11b(context.Background(), eng, 1, 60, 50, 10, []int{5, 10})
	})
	reportMethods(b, results, repro.Methods(), "s", totalSecs)
}

func BenchmarkFig11c(b *testing.B) {
	eng := testEngine(b)
	pts := benchRuns(b, func() ([]ThreadPoint, error) {
		return Fig11c(context.Background(), eng, 1, 60, 50, 10, []int{1, 2})
	})
	for _, p := range pts {
		b.ReportMetric(p.Time.Seconds(), fmt.Sprintf("threads%d-s", p.Threads))
	}
}

// --- Fig. 12 / Table III: discovery pipeline benchmarks ----------------------

// benchStocks is the 24-stock US market the discovery benchmarks decompose
// at rank 10 with at most 10 iterations.
func benchStocks(seed uint64) Dataset {
	ten, sec := datagen.StockTensor(rng.New(seed), 24, 80, 300, datagen.DefaultUSMarket())
	return Dataset{Name: "US Stock", Tensor: ten, Sectors: sec}
}

func BenchmarkFig12Correlations(b *testing.B) {
	d, eng := benchStocks(8), testEngine(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig12(context.Background(), eng, d, repro.WithRank(10), repro.WithMaxIters(10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIISimilarStocks(b *testing.B) {
	d, eng := benchStocks(9), testEngine(b)
	for i := 0; i < b.N; i++ {
		if _, err := TableIII(context.Background(), eng, d, 0, 10, 0.01, repro.WithRank(10), repro.WithMaxIters(10)); err != nil {
			b.Fatal(err)
		}
	}
}
