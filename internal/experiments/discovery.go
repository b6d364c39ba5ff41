package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro"
	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/stats"
)

// fig12Features are the 8 features whose pairwise correlations Fig. 12
// visualizes: four price features and four representative indicators.
var fig12Features = []string{"OPENING", "HIGHEST", "LOWEST", "CLOSING", "ATR14", "STOCH14", "OBV", "MACD"}

// Fig12 decomposes a stock tensor on eng under opts and returns the
// Pearson-correlation submatrix between the latent vectors (rows of V) of
// the 8 selected features, plus the feature labels.
func Fig12(ctx context.Context, eng *repro.Engine, d Dataset, opts ...repro.Option) (*mat.Dense, []string, error) {
	res, err := eng.Decompose(ctx, d.Tensor, opts...)
	if err != nil {
		return nil, nil, err
	}
	// Rows of V are per-feature latent vectors; build the selected block.
	names := datagen.StockFeatureNames()
	sub := mat.New(len(fig12Features), res.V.Cols)
	for i, f := range fig12Features {
		j := slices.Index(names, f)
		if j < 0 {
			return nil, nil, fmt.Errorf("fig12: feature %q not in stock feature set", f)
		}
		copy(sub.Row(i), res.V.Row(j))
	}
	return stats.CorrelationMatrix(sub), fig12Features, nil
}

// Fig12Table renders a correlation matrix as the heatmap's numeric table.
func Fig12Table(title string, corr *mat.Dense, labels []string) *Table {
	t := &Table{
		Title:  title,
		Header: append([]string{""}, labels...),
		Notes: []string{
			"paper: on US data ATR/OBV correlate positively with prices; on KR data they are near-uncorrelated",
			"STOCH is negatively correlated and MACD weakly correlated with prices on both markets",
		},
	}
	for i, l := range labels {
		row := make([]string, 0, len(labels)+1)
		row = append(row, l)
		for j := range labels {
			row = append(row, fmt.Sprintf("%+.2f", corr.At(i, j)))
		}
		t.AddRow(row...)
	}
	return t
}

// PriceIndicatorCorrelations extracts the average correlation of each
// indicator (ATR14, OBV, STOCH14, MACD) with the four price features — the
// scalar summary of the Fig. 12 pattern that the market-contrast test
// checks.
func PriceIndicatorCorrelations(corr *mat.Dense, labels []string) map[string]float64 {
	idx := map[string]int{}
	for i, l := range labels {
		idx[l] = i
	}
	prices := []string{"OPENING", "HIGHEST", "LOWEST", "CLOSING"}
	out := map[string]float64{}
	for _, ind := range []string{"ATR14", "STOCH14", "OBV", "MACD"} {
		var sum float64
		for _, p := range prices {
			sum += corr.At(idx[ind], idx[p])
		}
		out[ind] = sum / float64(len(prices))
	}
	return out
}

// TableIIIResult holds the two similar-stock rankings of Table III.
type TableIIIResult struct {
	Target   int
	KNN      []stats.Neighbor
	RWR      []stats.Neighbor
	SectorOf []int
}

// TableIII reproduces the similar-stock discovery: decompose the stock
// tensor on eng under opts, compute Equation-(10) similarities between
// stocks whose U_k share the target's shape, then rank by k-NN and by RWR
// over the similarity graph. target picks the query stock (the paper uses
// Microsoft).
func TableIII(ctx context.Context, eng *repro.Engine, d Dataset, target, topK int, gamma float64, opts ...repro.Option) (*TableIIIResult, error) {
	res, err := eng.Decompose(ctx, d.Tensor, opts...)
	if err != nil {
		return nil, err
	}
	k := d.Tensor.K()
	targetRows := d.Tensor.Slices[target].Rows

	// Only stocks with the same time range are comparable (Equation 10 is
	// defined for same-shaped U matrices). The paper constructs the tensor
	// over a common window; we emulate by padding comparison to stocks with
	// at least the target's rows, truncated to the window. UkRows
	// materializes just the trailing window from the factored form —
	// O(window·R²) per stock instead of the O(I_k·R²) a full U_k costs.
	us := make([]*mat.Dense, k)
	for kk := 0; kk < k; kk++ {
		rows := d.Tensor.Slices[kk].Rows
		if rows < targetRows {
			continue
		}
		us[kk] = res.UkRows(kk, rows-targetRows, rows) // align on trailing window
	}

	// Equation (11) similarity graph over comparable stocks (0 elsewhere).
	sim := stats.SimilarityGraph(k, func(i, j int) float64 {
		if us[i] == nil || us[j] == nil {
			return 0
		}
		return stats.ExpSimilarity(us[i], us[j], gamma)
	})

	knn := stats.KNN(sim, target, topK)
	scores := stats.RWR(sim, target, stats.DefaultRWRConfig())
	rwr := stats.TopK(scores, topK, func(i int) bool { return i == target })

	return &TableIIIResult{
		Target:   target,
		KNN:      knn,
		RWR:      rwr,
		SectorOf: d.Sectors,
	}, nil
}

// TableIIITable renders the two rankings side by side.
func TableIIITable(r *TableIIIResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Table III: top-%d stocks similar to stock #%d (sector %d)",
			len(r.KNN), r.Target, sectorOf(r, r.Target)),
		Header: []string{"rank", "kNN stock", "kNN sector", "kNN score", "RWR stock", "RWR sector", "RWR score"},
		Notes: []string{
			"paper: both rankings are dominated by the target's sector; RWR surfaces multi-hop neighbors kNN misses",
		},
	}
	for i := range r.KNN {
		kn := r.KNN[i]
		rw := stats.Neighbor{Index: -1}
		if i < len(r.RWR) {
			rw = r.RWR[i]
		}
		t.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("#%d", kn.Index), fmt.Sprintf("%d", sectorOf(r, kn.Index)), f3(kn.Score),
			fmt.Sprintf("#%d", rw.Index), fmt.Sprintf("%d", sectorOf(r, rw.Index)), f3(rw.Score))
	}
	return t
}

func sectorOf(r *TableIIIResult, i int) int {
	if i < 0 || r.SectorOf == nil || i >= len(r.SectorOf) {
		return -1
	}
	return r.SectorOf[i]
}

// SectorPrecision returns the fraction of a ranking that shares the
// target's sector — the quantitative version of Table III's "mostly
// Technology-sector" observation.
func SectorPrecision(r *TableIIIResult, ranking []stats.Neighbor) float64 {
	if len(ranking) == 0 {
		return 0
	}
	target := sectorOf(r, r.Target)
	hits := 0
	for _, n := range ranking {
		if sectorOf(r, n.Index) == target {
			hits++
		}
	}
	return float64(hits) / float64(len(ranking))
}
