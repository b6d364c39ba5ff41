package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Pool width and client count: the benchmark host has 2 cores.
const poolWidth = 2

// setupReps is how many times a run builds its set-up; setup_s is the median.
const setupReps = 5

// inprocWorkload is a closed loop of in-process Engine.Decompose calls, one
// client, result cache off, Tol = 0 so every op runs exactly iters
// iterations. Row counts are fixed quantiles of the workload's distribution
// (shuffled by the seed), so every seed does the same amount of work and only
// the values differ.
type inprocWorkload struct {
	k, lo, hi, j int
	tailPower    float64 // row quantile u^tailPower: 5 is long-tailed, 1 uniform
	rank, iters  int
	bases        int     // distinct base tensors generated in set-up
	floor        float64 // fitness below this fails the op
	gen          func(g *rng.RNG, rows []int, j int) *tensor.Irregular
}

func stockCold(tiny bool) inprocWorkload {
	w := inprocWorkload{k: 60, lo: 200, hi: 3000, j: datagen.StockFeatureCount, tailPower: 5,
		rank: 10, iters: 32, bases: 4, floor: 0.5, gen: stockTensor}
	if tiny {
		w.k, w.lo, w.hi, w.iters, w.bases = 6, 40, 120, 4, 2
	}
	return w
}

func urbanR16(tiny bool) inprocWorkload {
	w := inprocWorkload{k: 120, lo: 20, hi: 120, j: 64, tailPower: 1,
		rank: 16, iters: 32, bases: 4, floor: 0.5, gen: spectrogramTensor}
	if tiny {
		w.k, w.lo, w.hi, w.j, w.rank, w.iters, w.bases = 8, 20, 40, 24, 4, 4, 2
	}
	return w
}

func runStockCold(ctx context.Context, rc runConfig) (*report, error) {
	return runInproc(ctx, rc, stockCold(rc.tiny))
}

func runUrbanR16(ctx context.Context, rc runConfig) (*report, error) {
	return runInproc(ctx, rc, urbanR16(rc.tiny))
}

// rowCounts returns k row counts at fixed quantiles lo + (hi-lo)·u^power,
// u = (i+½)/k, in a seed-dependent order.
func rowCounts(g *rng.RNG, k, lo, hi int, power float64) []int {
	rows := make([]int, k)
	for i, p := range g.Perm(k) {
		u := (float64(p) + 0.5) / float64(k)
		rows[i] = lo + int(float64(hi-lo)*math.Pow(u, power))
	}
	return rows
}

// stockTensor is datagen.StockTensor with given listing periods: stocks
// share a market path and one of the market's sector paths, and each slice
// is the stock's days×88 feature matrix (j is always 88).
func stockTensor(g *rng.RNG, rows []int, _ int) *tensor.Irregular {
	m := datagen.DefaultUSMarket()
	horizon := 0
	for _, r := range rows {
		horizon = max(horizon, r)
	}
	dt := 1.0 / 252
	market := make([]float64, horizon)
	for t := range market {
		market[t] = 0.10 * math.Sqrt(dt) * g.Norm()
	}
	sectors := make([][]float64, m.Sectors)
	for i := range sectors {
		sectors[i] = make([]float64, horizon)
		for t := range sectors[i] {
			sectors[i][t] = 0.45 * math.Sqrt(dt) * g.Norm()
		}
	}
	slices := make([]*mat.Dense, len(rows))
	for k, days := range rows {
		sec := g.Intn(m.Sectors)
		st := datagen.SimulateStock(g, days, m, market[horizon-days:], sectors[sec][horizon-days:], sec)
		slices[k] = datagen.FeatureMatrix(st)
	}
	return tensor.MustIrregular(slices)
}

// spectrogramTensor is datagen.SpectrogramTensor with given frame counts.
func spectrogramTensor(g *rng.RNG, rows []int, bins int) *tensor.Irregular {
	slices := make([]*mat.Dense, len(rows))
	for k, frames := range rows {
		slices[k] = datagen.Spectrogram(g, frames, bins, 2+g.Intn(4))
	}
	return tensor.MustIrregular(slices)
}

func (w inprocWorkload) spec(seed uint64) repro.Spec {
	s := repro.DefaultSpec()
	s.Rank, s.MaxIters, s.Tol, s.Seed = w.rank, w.iters, 0, seed
	return s
}

// inprocInputs is one set-up: the engine, the base tensors, and the per-op
// slice orders. Op i decomposes base i mod B with its slices in the order
// perms[i / B], so every op's tensor is distinct while the memory footprint
// stays at B tensors.
type inprocInputs struct {
	eng   *repro.Engine
	bases []*tensor.Irregular
	perms [][]int
	spec  repro.Spec
}

const distinctOrders = 1024

func (w inprocWorkload) setup(ctx context.Context, seed uint64) (*inprocInputs, error) {
	g := rng.New(seed)
	in := &inprocInputs{spec: w.spec(seed)}
	for b := 0; b < w.bases; b++ {
		gb := g.Split()
		in.bases = append(in.bases, w.gen(gb, rowCounts(gb, w.k, w.lo, w.hi, w.tailPower), w.j))
	}
	for i := 0; i < distinctOrders; i++ {
		in.perms = append(in.perms, g.Perm(w.k))
	}
	in.eng = repro.NewEngine(repro.WithEngineThreads(poolWidth))
	// One warm-up op: pool workers, arena buckets and lapack workspaces are
	// warm before the measurement starts.
	if _, err := in.eng.Decompose(ctx, in.tensor(0), repro.WithSpec(in.spec)); err != nil {
		in.eng.Close()
		return nil, fmt.Errorf("warm-up decompose: %w", err)
	}
	return in, nil
}

func (in *inprocInputs) tensor(i int) *tensor.Irregular {
	b := in.bases[i%len(in.bases)]
	order := in.perms[(i/len(in.bases))%len(in.perms)]
	slices := make([]*mat.Dense, len(order))
	for j, k := range order {
		slices[j] = b.Slices[k]
	}
	return &tensor.Irregular{Slices: slices, J: b.J}
}

// repeatSetup builds the set-up setupReps times and keeps the last; it
// returns the median reference-speed set-up time in seconds.
func repeatSetup[T any](reps int, sm *speedMeter, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
			var zero T
			last = zero
			runtime.GC()
		}
		var v T
		var err error
		ms, f, _ := sm.span(0, func() { v, err = build() })
		if err != nil {
			return last, 0, err
		}
		times = append(times, ms*f/1000)
		last = v
	}
	return last, median(times), nil
}

// checkResult validates one Engine.Decompose result: true fitness at or above
// the floor, the fixed iteration count, and finite factors.
func checkResult(res *parafac2.Result, w inprocWorkload) error {
	if res.FitnessKind != parafac2.FitnessTrue || !finite(res.Fitness) || res.Fitness < w.floor {
		return fmt.Errorf("fitness %v (%s) below floor %v", res.Fitness, res.FitnessKind, w.floor)
	}
	if res.Iters != w.iters {
		return fmt.Errorf("ran %d iterations, want %d", res.Iters, w.iters)
	}
	if !finite(res.H.Data...) || !finite(res.V.Data...) {
		return fmt.Errorf("non-finite H or V")
	}
	for _, s := range res.S {
		if !finite(s...) {
			return fmt.Errorf("non-finite S")
		}
	}
	_, z, p, ok := res.FactoredQ()
	if !ok {
		return fmt.Errorf("result has no factored Q")
	}
	for k := range z {
		if !finite(z[k].Data...) || !finite(p[k].Data...) {
			return fmt.Errorf("non-finite Z_%d or P_%d", k, k)
		}
	}
	return nil
}

func runInproc(ctx context.Context, rc runConfig, w inprocWorkload) (*report, error) {
	rep := newReport()
	sm := newSpeedMeter()
	in, setupS, err := repeatSetup(setupReps, sm,
		func() (*inprocInputs, error) { return w.setup(ctx, rc.seed) },
		func(in *inprocInputs) { in.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer in.eng.Close()
	rep.values["setup_s"] = setupS
	rep.notef("set-up: %d base tensors of K=%d, J=%d, rows %d-%d (%d rows each), rank %d, %d iterations; median of %d set-ups %.3f s",
		len(in.bases), w.k, w.j, w.lo, w.hi, totalRows(in.bases[0]), w.rank, w.iters, setupReps, setupS)

	untraced := func(i int) (*parafac2.Result, float64) {
		t := in.tensor(i)
		t0 := time.Now()
		res, err := in.eng.Decompose(ctx, t, repro.WithSpec(in.spec))
		ms := durMS(time.Since(t0))
		rep.attempted++
		if err == nil {
			err = checkResult(res, w)
		}
		if err != nil {
			rep.failed++
			rep.notef("CHECK FAILED: op %d: %v", i, err)
			return nil, ms
		}
		return res, ms
	}

	if !rc.trace {
		// Each op is scaled by the bursts on either side of it (speed.go).
		var lats, walls, fits []float64
		var burst float64
		deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
		for i := 0; time.Now().Before(deadline); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var res *parafac2.Result
			var ms, f float64
			_, f, burst = sm.span(burst, func() { res, ms = untraced(i) })
			lats = append(lats, ms*f)
			walls = append(walls, ms)
			if res != nil {
				fits = append(fits, res.Fitness)
			}
		}
		rep.latencyMetrics(lats, walls, sum(lats))
		sm.note(rep)
		rep.values["fitness"] = mean(fits)
		rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		rep.values["peak_rss_mb"] = selfPeakRSSMB()
		return rep, nil
	}

	// Traced run: each op index runs untraced (Engine.Decompose) and traced
	// (the CompressCtx → DPar2FromCompressedCtx → FitnessWith composition)
	// on the same tensor; the two results must be bit-identical.
	var untracedMS []float64
	var tr traceSplit
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	var firstRes *parafac2.Result
	for i := 0; time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ures, ms := untraced(i)
		untracedMS = append(untracedMS, ms)
		tres, err := tr.decompose(ctx, in.tensor(i), in.spec, in.eng.Pool())
		rep.attempted++
		if err == nil {
			err = checkResult(tres, w)
		}
		if err == nil && ures != nil && !sameBits(ures, tres) {
			err = fmt.Errorf("traced composition is not bit-identical to Engine.Decompose")
		}
		if err != nil {
			rep.failed++
			rep.notef("CHECK FAILED: traced op %d: %v", i, err)
			continue
		}
		if firstRes == nil {
			firstRes = tres
		}
	}
	if firstRes == nil {
		return nil, fmt.Errorf("no traced op succeeded")
	}
	tr.report(rep, untracedMS)
	if err := layerProbes(ctx, rep, in.tensor(0), in.spec, in.eng.Pool(), firstRes); err != nil {
		return nil, err
	}
	rep.notApplicable("state.cache_hits", "state.cache_misses", "state.cache_hit_ratio",
		"state.checkpoint_write_ms", "parafac2.absorb_ms", "service.hit_ms", "service.miss_ms",
		"service.absorb_ms", "service.transport_ms", "admission.queue_wait_ms", "admission.run_ms",
		"admission.max_depth")
	return rep, nil
}

func totalRows(t *tensor.Irregular) int {
	n := 0
	for _, s := range t.Slices {
		n += s.Rows
	}
	return n
}

// notApplicable reports 0 for layers the workload does not exercise.
func (r *report) notApplicable(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

// selfPeakRSSMB is this process's peak resident set (VmHWM), in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sameBits reports whether two results are bit-identical: iterations,
// fitness, and every factor.
func sameBits(a, b *parafac2.Result) bool {
	return a.Iters == b.Iters && math.Float64bits(a.Fitness) == math.Float64bits(b.Fitness) &&
		a.FitnessKind == b.FitnessKind && sameFactors(a, b)
}

// sameFactors reports whether two results hold bit-identical factors: H, V,
// every S_k, and the factored Q (A_k, Z_k, P_k).
func sameFactors(a, b *parafac2.Result) bool {
	if len(a.S) != len(b.S) || !sameDense(a.H, b.H) || !sameDense(a.V, b.V) {
		return false
	}
	for k := range a.S {
		if !sameFloats(a.S[k], b.S[k]) {
			return false
		}
	}
	aa, az, ap, aok := a.FactoredQ()
	ba, bz, bp, bok := b.FactoredQ()
	if aok != bok || len(aa) != len(ba) {
		return false
	}
	for k := range aa {
		if !sameDense(aa[k], ba[k]) || !sameDense(az[k], bz[k]) || !sameDense(ap[k], bp[k]) {
			return false
		}
	}
	return true
}

func sameDense(a, b *mat.Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && sameFloats(a.Data, b.Data)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
