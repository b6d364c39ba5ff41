package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/compute"
	"repro/internal/dataio"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/scheduler"
	"repro/internal/tensor"
)

// probeReps is how many times each per-layer probe repeats (median kept).
const probeReps = 5

// specConfig materializes the parafac2.Config an Engine executes a Spec
// under: the Spec's knobs pinned to the Engine's pool.
func specConfig(s repro.Spec, pool *compute.Pool) parafac2.Config {
	return parafac2.Config{
		Rank: s.Rank, MaxIters: s.MaxIters, Tol: s.Tol, Seed: s.Seed,
		Oversample: s.Oversample, PowerIters: s.PowerIters, ShardRows: s.ShardRows,
		Ridge: s.Ridge, NonnegativeS: s.NonnegativeS,
		Pool: pool, Threads: pool.Workers(),
	}
}

// traceSplit accumulates the spans of traced decompositions: one span per
// layer call of the composition Engine.Decompose performs for DPar2.
type traceSplit struct {
	compress, als, fitness, total []float64 // ms per traced op
	iter                          []float64 // ms per steady-state ALS iteration
	iters                         []float64
}

// decompose runs CompressCtx → DPar2FromCompressedCtx → FitnessWith on the
// pool, timing each call; ALS iteration times come from Config.Progress
// timestamps (the callback only records time, so the result bits are the
// untraced ones).
func (tr *traceSplit) decompose(ctx context.Context, t *tensor.Irregular, spec repro.Spec, pool *compute.Pool) (*parafac2.Result, error) {
	cfg := specConfig(spec, pool)
	stamps := make([]time.Time, 0, spec.MaxIters)
	cfg.Progress = func(int, float64) bool {
		stamps = append(stamps, time.Now())
		return true
	}
	t0 := time.Now()
	comp, err := parafac2.CompressCtx(ctx, t, cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := parafac2.DPar2FromCompressedCtx(ctx, comp, cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res.Fitness = parafac2.FitnessWith(t, res, pool)
	res.FitnessKind = parafac2.FitnessTrue
	t3 := time.Now()

	tr.compress = append(tr.compress, durMS(t1.Sub(t0)))
	tr.als = append(tr.als, durMS(t2.Sub(t1)))
	tr.fitness = append(tr.fitness, durMS(t3.Sub(t2)))
	tr.total = append(tr.total, durMS(t3.Sub(t0)))
	tr.iters = append(tr.iters, float64(res.Iters))
	// The first iteration also pays the loop's one-time set-up; steady-state
	// iterations are the gaps between consecutive Progress calls.
	for i := 1; i < len(stamps); i++ {
		tr.iter = append(tr.iter, durMS(stamps[i].Sub(stamps[i-1])))
	}
	return res, nil
}

// report fills the composition metrics. untracedMS are the latencies of the
// interleaved untraced ops on the same tensors.
func (tr *traceSplit) report(rep *report, untracedMS []float64) {
	rep.values["parafac2.compress_ms"] = median(tr.compress)
	rep.values["parafac2.als_ms"] = median(tr.als)
	rep.values["parafac2.fitness_ms"] = median(tr.fitness)
	rep.values["parafac2.als_iter_ms"] = median(tr.iter)
	rep.values["parafac2.als_iters"] = median(tr.iters)
	rep.values["parafac2.compress_share"] = sum(tr.compress) / sum(tr.total)
	rep.values["parafac2.als_share"] = sum(tr.als) / sum(tr.total)
	rep.values["trace.overhead_ratio"] = median(tr.total) / median(untracedMS)
	accounted := median(tr.compress) + median(tr.als) + median(tr.fitness)
	rep.values["trace.accounted_share"] = accounted / median(untracedMS)
	rep.notef("traced split over %d ops: compress %.2f ms + ALS %.2f ms + fitness %.2f ms = %.1f%% of the untraced op p50 %.2f ms (compress share %.3f, ALS share %.3f)",
		len(tr.total), median(tr.compress), median(tr.als), median(tr.fitness),
		100*rep.values["trace.accounted_share"], median(untracedMS),
		rep.values["parafac2.compress_share"], rep.values["parafac2.als_share"])
}

// layerProbes times single layers directly on tensor t under spec: stage 1
// (serial and partitioned on the pool) and stage 2 of the compression, the
// stage-1 dense products, one FactorBatch at the workload's K×R×R, the ALS
// allocation split, and the DPF2 codec on res. Each probe also checks its
// outputs against the real composition where they overlap.
func layerProbes(ctx context.Context, rep *report, t *tensor.Irregular, spec repro.Spec, pool *compute.Pool, res *parafac2.Result) error {
	cfg := specConfig(spec, pool)
	comp, err := parafac2.CompressCtx(ctx, t, cfg)
	if err != nil {
		return err
	}
	if err := stage1Probe(rep, t, cfg, comp); err != nil {
		return err
	}
	matProbe(rep, t, cfg)
	factorBatchProbe(rep, t.K(), cfg.Rank, pool)
	if err := allocProbe(ctx, rep, comp, cfg); err != nil {
		return err
	}
	return codecProbe(rep, res)
}

// stage1Probe replicates the compression with the layers' public functions:
// per-slice rsvd.Decompose serially (busy time) and over the greedy
// scheduler.Partition on the pool (wall time), then the stage-2 rsvd of the
// concatenated C_k B_k. The replicated A_k and D must be bit-identical to
// CompressCtx's.
func stage1Probe(rep *report, t *tensor.Irregular, cfg parafac2.Config, comp *parafac2.Compressed) error {
	r := cfg.Rank
	opts := rsvd.Options{Oversample: cfg.Oversample, PowerIters: cfg.PowerIters}
	sizes := t.Rows()
	for k, s := range t.Slices {
		if rsvd.NumShards(s.Rows, s.Cols, cfg.ShardRowsThreshold(), opts.SketchWidth(r)) > 1 {
			return fmt.Errorf("stage-1 probe: slice %d (%d rows) would be sharded; the probe replicates only whole-slice sketches", k, s.Rows)
		}
	}
	pool := cfg.Pool
	part := scheduler.Partition(sizes, pool.Workers())
	bucketOf := make([]int, t.K())
	for bi, b := range part {
		for _, k := range b {
			bucketOf[k] = bi
		}
	}
	// gens replays compressWith's generator split: one child per slice, the
	// parent then drives stage 2.
	gens := func() (*rng.RNG, []*rng.RNG) {
		g := rng.New(cfg.Seed)
		out := make([]*rng.RNG, t.K())
		for k := range out {
			out[k] = g.Split()
		}
		return g, out
	}

	var busy, wall, stage2 []float64
	var a, cb []*mat.Dense
	var d2 lapack.SVD
	for i := 0; i < probeReps; i++ {
		_, gs := gens()
		ws := new(lapack.Workspace)
		t0 := time.Now()
		for k, s := range t.Slices {
			o := opts
			o.Workspace = ws
			rsvd.Decompose(gs[k], s, r, o)
		}
		busy = append(busy, durMS(time.Since(t0)))

		g, gs := gens()
		a = make([]*mat.Dense, t.K())
		cb = make([]*mat.Dense, t.K())
		wss := make([]lapack.Workspace, len(part))
		t0 = time.Now()
		pool.RunPartitioned(part, func(k int) {
			o := opts
			o.Workspace = &wss[bucketOf[k]]
			d := rsvd.Decompose(gs[k], t.Slices[k], r, o)
			a[k] = d.U
			cb[k] = d.V.ScaleColumns(d.S)
		})
		wall = append(wall, durMS(time.Since(t0)))

		m := mat.HConcat(cb...)
		o := opts
		o.Runner = pool
		t0 = time.Now()
		d2 = rsvd.Decompose(g, m, r, o)
		stage2 = append(stage2, durMS(time.Since(t0)))
	}
	same := sameDense(d2.U, comp.D)
	for k := range a {
		same = same && sameDense(a[k], comp.A[k])
	}
	rep.check(same, "replicated stage-1/stage-2 factors are not bit-identical to CompressCtx")

	rep.values["rsvd.stage1_busy_ms"] = median(busy)
	rep.values["rsvd.stage1_wall_ms"] = median(wall)
	rep.values["rsvd.stage1_parallel_eff"] = median(busy) / (float64(pool.Workers()) * median(wall))
	rep.values["rsvd.stage2_ms"] = median(stage2)
	return nil
}

// matProbe times the dense products of every stage-1 sketch — A·Ω, Aᵀ·Y,
// A·Z and Qᵀ·A (each 2·I·J·s flops, s = rank + oversample), plus Q·Ũ
// (2·I·s·R) — serially, on the slice shapes that take the randomized path.
// mat.stage1_mul_gflops is the computed flop count over that time; it is a
// count derived from the shapes, not a hardware counter.
func matProbe(rep *report, t *tensor.Irregular, cfg parafac2.Config) {
	r := cfg.Rank
	s := r + cfg.Oversample
	g := rng.New(cfg.Seed ^ 0x6d61)
	type shapes struct{ x, omega, y, z, b, q, u, out *mat.Dense }
	var work []shapes
	var flops float64
	for _, x := range t.Slices {
		if s >= min(x.Rows, x.Cols) {
			continue // deterministic-SVD path: no sketch products
		}
		work = append(work, shapes{
			x: x, omega: mat.Gaussian(g, x.Cols, s), y: mat.New(x.Rows, s), z: mat.New(x.Cols, s),
			b: mat.New(s, x.Cols), q: mat.Gaussian(g, x.Rows, s), u: mat.Gaussian(g, s, r), out: mat.New(x.Rows, r),
		})
		products := 2 + 2*cfg.PowerIters
		flops += float64(products)*2*float64(x.Rows*x.Cols*s) + 2*float64(x.Rows*s*r)
	}
	if len(work) == 0 {
		rep.values["mat.stage1_mul_gflops"] = 0
		return
	}
	ms := medianOf(probeReps, func() float64 {
		t0 := time.Now()
		for _, w := range work {
			w.x.MulInto(w.y, w.omega, nil)
			for q := 0; q < cfg.PowerIters; q++ {
				w.x.TMulInto(w.z, w.y, nil)
				w.x.MulInto(w.y, w.z, nil)
			}
			w.q.TMulInto(w.b, w.x, nil)
			w.q.MulInto(w.out, w.u, nil)
		}
		return durMS(time.Since(t0))
	})
	rep.values["mat.stage1_mul_gflops"] = flops / (ms * 1e6)
}

// factorBatchProbe times one lapack.FactorBatch over K R×R problems — the
// batched Q-update SVD every ALS iteration runs — with a reused workspace.
func factorBatchProbe(rep *report, k, r int, pool *compute.Pool) {
	g := rng.New(0xfb)
	as := make([]*mat.Dense, k)
	us := make([]*mat.Dense, k)
	vs := make([]*mat.Dense, k)
	ss := make([][]float64, k)
	for i := range as {
		as[i] = mat.Gaussian(g, r, r)
		us[i] = mat.New(r, r)
		vs[i] = mat.New(r, r)
		ss[i] = make([]float64, r)
	}
	var ws lapack.BatchWorkspace
	lapack.FactorBatch(as, us, ss, vs, pool, &ws) // size the workspace
	rep.values["lapack.factor_batch_ms"] = medianOf(4*probeReps, func() float64 {
		t0 := time.Now()
		lapack.FactorBatch(as, us, ss, vs, pool, &ws)
		return durMS(time.Since(t0))
	})
}

// heapAllocs is the cumulative heap allocation count from runtime/metrics.
// The runtime credits small-object allocations to this counter a whole span
// at a time; a GC flushes every per-P cache, so reads taken right after one
// are exact.
func heapAllocs() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// allocProbe splits the ALS loop's allocations into one-time set-up and
// steady state: DPar2FromCompressedCtx at MaxIters 1 and at the workload's
// N (Tol = 0, so exactly N run) gives setup + 1·iter and setup + N·iter.
func allocProbe(ctx context.Context, rep *report, comp *parafac2.Compressed, cfg parafac2.Config) error {
	n := cfg.MaxIters
	if n < 2 {
		return fmt.Errorf("allocation probe needs at least 2 iterations, have %d", n)
	}
	count := func(iters int) (float64, error) {
		c := cfg
		c.MaxIters, c.Tol = iters, 0
		before := heapAllocs()
		if _, err := parafac2.DPar2FromCompressedCtx(ctx, comp, c); err != nil {
			return 0, err
		}
		return float64(heapAllocs() - before), nil
	}
	var one, many []float64
	for i := 0; i < probeReps; i++ {
		a, err := count(1)
		if err != nil {
			return err
		}
		b, err := count(n)
		if err != nil {
			return err
		}
		one, many = append(one, a), append(many, b)
	}
	perIter := (median(many) - median(one)) / float64(n-1)
	rep.values["parafac2.als_allocs_per_iter"] = perIter
	rep.values["parafac2.als_setup_allocs"] = median(one) - perIter
	return nil
}

// codecProbe times the DPF2 result encoding a served result pays and checks
// that it round-trips bit-identically.
func codecProbe(rep *report, res *parafac2.Result) error {
	var buf bytes.Buffer
	var encErr error
	enc := medianOf(probeReps, func() float64 {
		buf.Reset()
		t0 := time.Now()
		if err := dataio.WriteResult(&buf, res); err != nil && encErr == nil {
			encErr = err
		}
		return durMS(time.Since(t0))
	})
	if encErr != nil {
		return fmt.Errorf("encode result: %w", encErr)
	}
	raw := buf.Bytes()
	var back *parafac2.Result
	var decErr error
	dec := medianOf(probeReps, func() float64 {
		t0 := time.Now()
		r, err := dataio.ReadResult(bytes.NewReader(raw))
		if err != nil && decErr == nil {
			decErr = err
		}
		back = r
		return durMS(time.Since(t0))
	})
	if decErr != nil {
		return fmt.Errorf("decode result: %w", decErr)
	}
	rep.check(sameFactors(back, res), "DPF2 round trip is not bit-identical")
	rep.values["dataio.result_encode_ms"] = enc
	rep.values["dataio.result_decode_ms"] = dec
	rep.values["dataio.result_bytes"] = float64(len(raw))
	return nil
}
