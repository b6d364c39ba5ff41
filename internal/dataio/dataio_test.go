package dataio

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func sampleTensor() *tensor.Irregular {
	g := rng.New(1)
	return datagen.LowRank(g, []int{20, 35, 27}, 12, 3, 0.1)
}

func TestTensorRoundTrip(t *testing.T) {
	ten := sampleTensor()
	var buf bytes.Buffer
	if err := WriteTensor(&buf, ten); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTensor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K() != ten.K() || back.J != ten.J {
		t.Fatalf("shape changed: K=%d J=%d", back.K(), back.J)
	}
	for k := range ten.Slices {
		if !back.Slices[k].EqualApprox(ten.Slices[k], 0) {
			t.Fatalf("slice %d not bit-identical", k)
		}
	}
}

func TestTensorFileRoundTrip(t *testing.T) {
	ten := sampleTensor()
	path := filepath.Join(t.TempDir(), "tensor.dpt2")
	if err := SaveTensor(path, ten); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Norm2() != ten.Norm2() {
		t.Fatal("norm changed across file round trip")
	}
}

func TestTensorSpecialValues(t *testing.T) {
	// NaN and ±Inf must survive bit-exactly.
	// Note: the Go constant literal -0.0 is +0.0; Copysign makes a real
	// negative zero.
	m := mat.NewFromData(2, 2, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)})
	ten := tensor.MustIrregular([]*mat.Dense{m})
	var buf bytes.Buffer
	if err := WriteTensor(&buf, ten); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTensor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Slices[0]
	if !math.IsNaN(got.At(0, 0)) || !math.IsInf(got.At(0, 1), 1) || !math.IsInf(got.At(1, 0), -1) {
		t.Fatal("special values corrupted")
	}
	if math.Signbit(got.At(1, 1)) != true {
		t.Fatal("-0.0 lost its sign")
	}
}

func TestReadTensorRejectsGarbage(t *testing.T) {
	if _, err := ReadTensor(bytes.NewReader([]byte("not a tensor file at all"))); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := ReadTensor(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected short-read error")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	if err := WriteTensor(&buf, sampleTensor()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTensor(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestResultRoundTrip(t *testing.T) {
	ten := sampleTensor()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 10
	cfg.Threads = 2
	res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.H.EqualApprox(res.H, 0) || !back.V.EqualApprox(res.V, 0) {
		t.Fatal("H/V not identical")
	}
	for k := 0; k < res.K(); k++ {
		if !back.Qk(k).EqualApprox(res.Qk(k), 0) {
			t.Fatalf("Q_%d not identical", k)
		}
		for i := range res.S[k] {
			if back.S[k][i] != res.S[k][i] {
				t.Fatalf("S_%d not identical", k)
			}
		}
	}
	// The restored factors must reconstruct as well as the originals.
	if got := parafac2.Fitness(ten, back); math.Abs(got-res.Fitness) > 1e-12 {
		t.Fatalf("restored fitness %v != %v", got, res.Fitness)
	}
}

// TestResultRoundTripKeepsFactoredForm: a DPar2 result is saved in factored
// form and restored in factored form — the lazy-Q contract (and the compact
// A-plus-R×R footprint) survives serialization, with the factors themselves
// bit-identical.
func TestResultRoundTripKeepsFactoredForm(t *testing.T) {
	ten := sampleTensor()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 10
	cfg.Threads = 2
	res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Factored() {
		t.Fatal("DPar2 result is not factored")
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Factored() {
		t.Fatal("factored result came back dense")
	}
	if back.FitnessKind != parafac2.FitnessUnset {
		t.Fatalf("loaded result has FitnessKind %v, want unset", back.FitnessKind)
	}
	a0, z0, p0, _ := res.FactoredQ()
	a1, z1, p1, _ := back.FactoredQ()
	for k := range a0 {
		if !a1[k].EqualApprox(a0[k], 0) || !z1[k].EqualApprox(z0[k], 0) || !p1[k].EqualApprox(p0[k], 0) {
			t.Fatalf("factored components of slice %d not bit-identical", k)
		}
	}
}

// TestResultRoundTripDense: eager (baseline) results still use the dense
// layout and restore dense.
func TestResultRoundTripDense(t *testing.T) {
	ten := sampleTensor()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 5
	cfg.Threads = 1
	res, err := parafac2.ALSCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factored() {
		t.Fatal("ALS result unexpectedly factored")
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Factored() {
		t.Fatal("dense result came back factored")
	}
	for k := 0; k < res.K(); k++ {
		if !back.Qk(k).EqualApprox(res.Qk(k), 0) {
			t.Fatalf("Q_%d not identical", k)
		}
	}
}

// TestReadResultV1BackCompat: version-1 result files (the pre-factored dense
// layout without the qform field) must still load.
func TestReadResultV1BackCompat(t *testing.T) {
	ten := sampleTensor()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 5
	cfg.Threads = 1
	res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Materialize()

	// Hand-craft the v1 layout: magic | 1 | K | J | R | I_1..I_K | H | V |
	// S | dense Q_1..Q_K.
	var buf bytes.Buffer
	k := res.K()
	buf.WriteString(resultMagic)
	header := []uint64{1, uint64(k), uint64(res.V.Rows), uint64(res.H.Rows)}
	for i := 0; i < k; i++ {
		header = append(header, uint64(res.SliceRows(i)))
	}
	if err := writeUints(&buf, header); err != nil {
		t.Fatal(err)
	}
	payload := [][]float64{res.H.Data, res.V.Data}
	for _, s := range res.S {
		payload = append(payload, s)
	}
	for i := 0; i < k; i++ {
		payload = append(payload, res.Qk(i).Data)
	}
	for _, p := range payload {
		if err := writeFloats(&buf, p); err != nil {
			t.Fatal(err)
		}
	}

	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Factored() {
		t.Fatal("v1 file must restore a dense result")
	}
	if !back.H.EqualApprox(res.H, 0) || !back.V.EqualApprox(res.V, 0) {
		t.Fatal("H/V not identical from v1 file")
	}
	for i := 0; i < k; i++ {
		if !back.Qk(i).EqualApprox(res.Qk(i), 0) {
			t.Fatalf("Q_%d not identical from v1 file", i)
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	ten := sampleTensor()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 5
	cfg.Threads = 1
	res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "factors.dpf2")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResult(path); err != nil {
		t.Fatal(err)
	}
}

func TestReadResultRejectsTensorFile(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTensor(&buf, sampleTensor()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResult(&buf); err == nil {
		t.Fatal("expected magic mismatch reading tensor as result")
	}
}

func TestWriteMatrixCSV(t *testing.T) {
	m := mat.NewFromData(2, 3, []float64{1, 2.5, -3, 0, 1e-9, 7})
	var buf bytes.Buffer
	if err := WriteMatrixCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "1,2.5,-3") {
		t.Fatalf("first line %q", lines[0])
	}
	if strings.Count(lines[1], ",") != 2 {
		t.Fatalf("second line %q", lines[1])
	}
}
