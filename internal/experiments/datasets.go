// Package experiments regenerates every table and figure of the DPar2
// paper's evaluation (Section IV) on synthetic stand-in datasets. Each
// runner returns structured rows so callers (cmd/experiments, benchmarks,
// tests) can inspect or print them.
//
// The stand-ins are scaled-down versions of Table II sized to run on a
// laptop-class machine in seconds-to-minutes; the *shape* of the paper's
// results (who wins, roughly by how much, where the crossovers are) is the
// reproduction target, not absolute wall-clock numbers.
package experiments

import (
	"slices"

	"repro/internal/datagen"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dataset is one evaluation dataset: a generated irregular tensor plus the
// Table II metadata it mirrors.
type Dataset struct {
	Name    string
	Summary string
	Tensor  *tensor.Irregular
	// PaperMaxI, PaperJ, PaperK are the real dataset's dimensions from
	// Table II, recorded for the report.
	PaperMaxI, PaperJ, PaperK int
	// Sectors is set for stock datasets (used by Table III).
	Sectors []int
}

// Scale selects how large the generated stand-ins are.
type Scale int

const (
	// ScaleTest is small enough for unit tests (sub-second per method).
	ScaleTest Scale = iota
	// ScaleBench is the default for the experiment harness.
	ScaleBench
)

// dims sizes a stand-in: k slices of loI to hiI rows by j columns (stock
// generators ignore j, traffic ones hiI).
type dims struct{ k, loI, hiI, j int }

// standIn is one row of Table II: the real dataset's metadata, the
// stand-in's sizes at ScaleTest and ScaleBench, and its generator, which
// draws from child number draw of the seed's generator.
type standIn struct {
	meta  Dataset
	draw  int
	sizes [2]dims
	gen   func(g *rng.RNG, d dims) (*tensor.Irregular, []int)
}

// catalogue is Table II in print order; the stock markets draw first.
var catalogue = []standIn{
	{Dataset{Name: "FMA", Summary: "music (time, frequency, song)", PaperMaxI: 704, PaperJ: 2049, PaperK: 7997},
		2, [2]dims{{8, 30, 70, 64}, {60, 80, 220, 256}}, spectrogram},
	{Dataset{Name: "Urban", Summary: "urban sound (time, frequency, sound)", PaperMaxI: 174, PaperJ: 2049, PaperK: 8455},
		3, [2]dims{{8, 20, 50, 64}, {60, 40, 120, 256}}, spectrogram},
	{Dataset{Name: "US Stock", Summary: "stock (date, feature, stock)", PaperMaxI: 7883, PaperJ: 88, PaperK: 4742},
		0, [2]dims{{10, 60, 200, 88}, {80, 100, 900, 88}}, stocks(datagen.DefaultUSMarket())},
	{Dataset{Name: "KR Stock", Summary: "stock (date, feature, stock)", PaperMaxI: 5270, PaperJ: 88, PaperK: 3664},
		1, [2]dims{{8, 50, 150, 88}, {60, 80, 650, 88}}, stocks(datagen.DefaultKRMarket())},
	{Dataset{Name: "Activity", Summary: "video feature (frame, feature, video)", PaperMaxI: 553, PaperJ: 570, PaperK: 320},
		4, [2]dims{{6, 30, 80, 40}, {32, 80, 250, 120}}, video(5)},
	{Dataset{Name: "Action", Summary: "video feature (frame, feature, video)", PaperMaxI: 936, PaperJ: 570, PaperK: 567},
		5, [2]dims{{6, 30, 90, 40}, {40, 90, 320, 120}}, video(8)},
	{Dataset{Name: "Traffic", Summary: "traffic (sensor, frequency, time)", PaperMaxI: 2033, PaperJ: 96, PaperK: 1084},
		6, [2]dims{{8, 40, 0, 32}, {60, 160, 0, 96}}, traffic},
	{Dataset{Name: "PEMS-SF", Summary: "traffic (station, timestamp, day)", PaperMaxI: 963, PaperJ: 144, PaperK: 440},
		7, [2]dims{{8, 30, 0, 48}, {44, 96, 0, 144}}, traffic},
}

func spectrogram(g *rng.RNG, d dims) (*tensor.Irregular, []int) {
	return datagen.SpectrogramTensor(g, d.k, d.loI, d.hiI, d.j), nil
}

func stocks(m datagen.StockMarket) func(*rng.RNG, dims) (*tensor.Irregular, []int) {
	return func(g *rng.RNG, d dims) (*tensor.Irregular, []int) {
		return datagen.StockTensor(g, d.k, d.loI, d.hiI, m)
	}
}

func video(classes int) func(*rng.RNG, dims) (*tensor.Irregular, []int) {
	return func(g *rng.RNG, d dims) (*tensor.Irregular, []int) {
		return datagen.VideoFeatureTensor(g, d.k, d.loI, d.hiI, d.j, classes), nil
	}
}

func traffic(g *rng.RNG, d dims) (*tensor.Irregular, []int) {
	return datagen.TrafficTensor(g, d.k, d.loI, d.j), nil
}

// build generates s at scale sc from child number s.draw of the seed's
// generator.
func (s standIn) build(seed uint64, sc Scale) Dataset {
	g := rng.New(seed)
	for range s.draw {
		g.Split()
	}
	d := s.meta
	d.Tensor, d.Sectors = s.gen(g.Split(), s.sizes[sc])
	return d
}

// Names lists the eight Table II datasets in print order, the order LoadAll
// returns them in.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, s := range catalogue {
		names[i] = s.meta.Name
	}
	return names
}

// LoadAll generates the eight evaluation datasets of Table II.
func LoadAll(seed uint64, sc Scale) []Dataset {
	out := make([]Dataset, len(catalogue))
	for i, s := range catalogue {
		out[i] = s.build(seed, sc)
	}
	return out
}

// Load generates only the named dataset (case-sensitive, as printed by
// Table II), bit for bit as LoadAll generates it.
func Load(seed uint64, sc Scale, name string) (Dataset, bool) {
	i := slices.IndexFunc(catalogue, func(s standIn) bool { return s.meta.Name == name })
	if i < 0 {
		return Dataset{}, false
	}
	return catalogue[i].build(seed, sc), true
}
