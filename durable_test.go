package repro

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parafac2"
	"repro/internal/tensor"
)

// countingMethod wraps the registered DPar2 method and counts invocations —
// the counter-asserted proof that a cache hit serves a repeated Decompose
// without running the method.
type countingMethod struct {
	inner parafac2.Method
	calls atomic.Int64
}

func (c *countingMethod) Name() string { return "counting-dpar2" }

func (c *countingMethod) Decompose(ctx context.Context, t *tensor.Irregular, cfg parafac2.Config) (*parafac2.Result, error) {
	c.calls.Add(1)
	return c.inner.Decompose(ctx, t, cfg)
}

var (
	countingOnce sync.Once
	counting     *countingMethod
)

// countingDPar2 registers (once) and returns the counting wrapper.
func countingDPar2(t *testing.T) *countingMethod {
	t.Helper()
	countingOnce.Do(func() {
		inner, err := parafac2.MustLookup(string(MethodDPar2))
		if err != nil {
			panic(err)
		}
		counting = &countingMethod{inner: inner}
		parafac2.Register(counting)
	})
	return counting
}

func resultsEqualBits(t *testing.T, a, b *Result) {
	t.Helper()
	if !a.H.EqualApprox(b.H, 0) || !a.V.EqualApprox(b.V, 0) {
		t.Fatal("H/V differ")
	}
	if a.K() != b.K() {
		t.Fatalf("K %d vs %d", a.K(), b.K())
	}
	for k := 0; k < a.K(); k++ {
		if !a.Qk(k).EqualApprox(b.Qk(k), 0) {
			t.Fatalf("Q_%d differs", k)
		}
		for i := range a.S[k] {
			if a.S[k][i] != b.S[k][i] {
				t.Fatalf("S_%d differs", k)
			}
		}
	}
	if a.Fitness != b.Fitness || a.FitnessKind != b.FitnessKind || a.Iters != b.Iters {
		t.Fatalf("run metadata differs: fitness %v/%v kind %v/%v iters %d/%d",
			a.Fitness, b.Fitness, a.FitnessKind, b.FitnessKind, a.Iters, b.Iters)
	}
}

// TestEngineResultCacheHit is the tentpole acceptance test: a repeated
// Decompose is served from the cache without invoking the method, with
// hit/miss counters surfaced through CacheCounters, EngineStats, and the
// per-tenant Submit path.
func TestEngineResultCacheHit(t *testing.T) {
	cm := countingDPar2(t)
	stats := &EngineStats{}
	dir := t.TempDir()
	eng := NewEngine(
		WithBaseConfig(engineTestConfig()),
		WithStateDir(dir),
		WithResultCache(1<<22),
		WithEngineMetrics(stats),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(11)
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	first, err := eng.Decompose(ctx, ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("first Decompose invoked the method %d times", got)
	}

	second, err := eng.Decompose(ctx, ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("cache hit still invoked the method (%d total calls)", got)
	}
	resultsEqualBits(t, first, second)

	hits, misses := eng.CacheCounters()
	if hits != 1 || misses != 1 {
		t.Fatalf("CacheCounters = (%d, %d), want (1, 1)", hits, misses)
	}
	def := stats.Tenant("")
	if def.CacheHits != 1 || def.CacheMisses != 1 {
		t.Fatalf("EngineStats default tenant cache counters = (%d, %d), want (1, 1)",
			def.CacheHits, def.CacheMisses)
	}

	// The Submit path consults the same cache and attributes the hit to the
	// job's tenant.
	jr := <-eng.Submit(ctx, Job{Tensor: ten, Options: []Option{opt}, Tenant: "acme"})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("submitted job missed the cache (%d total calls)", got)
	}
	resultsEqualBits(t, first, jr.Result)
	if acme := stats.Tenant("acme"); acme.CacheHits != 1 {
		t.Fatalf("tenant acme cache hits = %d, want 1", acme.CacheHits)
	}

	// A different knob is a different key: changing the rank must miss.
	if _, err := eng.Decompose(ctx, ten, opt, WithRank(3)); err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 2 {
		t.Fatalf("rank change should have missed the cache (%d total calls)", got)
	}
}

// TestEngineCacheBypassesSideEffectRuns: convergence traces and Progress
// callbacks must actually run, so those calls never consult or populate the
// cache.
func TestEngineCacheBypassesSideEffectRuns(t *testing.T) {
	cm := countingDPar2(t)
	eng := NewEngine(
		WithBaseConfig(engineTestConfig()),
		WithStateDir(t.TempDir()),
		WithResultCache(1<<22),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(12)
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	for i := 0; i < 2; i++ {
		if _, err := eng.Decompose(ctx, ten, opt, WithConvergenceTrace()); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	progress := WithProgress(func(int, float64) bool { calls++; return true })
	if _, err := eng.Decompose(ctx, ten, opt, progress); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress callback never ran")
	}
	if got := cm.calls.Load() - before; got != 3 {
		t.Fatalf("side-effect runs were cached (%d calls, want 3)", got)
	}
	if hits, misses := eng.CacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("bypassed runs touched the cache: (%d, %d)", hits, misses)
	}
}

// TestEngineCachePersistsAcrossEngines: the cache is on disk — a new Engine
// over the same state directory serves the previous engine's results.
func TestEngineCachePersistsAcrossEngines(t *testing.T) {
	cm := countingDPar2(t)
	dir := t.TempDir()
	ten := engineTestTensor(13)
	opt := WithMethod(MethodID(cm.Name()))
	build := func() *Engine {
		return NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir), WithResultCache(1<<22))
	}

	eng1 := build()
	first, err := eng1.Decompose(context.Background(), ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	before := cm.calls.Load()
	eng2 := build()
	defer eng2.Close()
	second, err := eng2.Decompose(context.Background(), ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cm.calls.Load() != before {
		t.Fatal("second engine re-ran a cached decomposition")
	}
	resultsEqualBits(t, first, second)
	if hits, _ := eng2.CacheCounters(); hits != 1 {
		t.Fatalf("second engine hits = %d, want 1", hits)
	}
}

// TestEngineSaveResumeStream: the engine-level checkpoint path — relative
// paths under the state dir, atomic write, restore rebinding to the pool,
// and bit-identical continuation.
func TestEngineSaveResumeStream(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir))
	defer eng.Close()
	ctx := context.Background()

	g := NewRNG(21)
	full := LowRankTensor(g, []int{50, 60, 45, 55, 65, 40}, 18, 3, 0.02)
	initial := tensor.MustIrregular(full.Slices[:3])
	st, err := eng.NewStream(ctx, initial, WithRank(3), WithMaxIters(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, full.Slices[3:4]); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveStream("streams/run.dpc2", st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "streams", "run.dpc2")); err != nil {
		t.Fatalf("relative checkpoint path not under state dir: %v", err)
	}

	back, err := eng.ResumeStream(ctx, "streams/run.dpc2")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, full.Slices[4:]); err != nil {
		t.Fatal(err)
	}
	if err := back.AbsorbCtx(ctx, full.Slices[4:]); err != nil {
		t.Fatal(err)
	}
	if st.K() != back.K() {
		t.Fatalf("K %d vs %d", st.K(), back.K())
	}
	resultsEqualBits(t, st.Result(), back.Result())
}

// TestEngineSaveStreamNeedsDirForRelative: SaveStream must also work with no
// state dir when given an explicit path, and reject nil streams.
func TestEngineSaveStreamValidation(t *testing.T) {
	eng := NewEngine(WithBaseConfig(engineTestConfig()))
	defer eng.Close()
	if err := eng.SaveStream(filepath.Join(t.TempDir(), "x.dpc2"), nil); err == nil {
		t.Fatal("expected error for nil stream")
	}

	g := NewRNG(22)
	full := LowRankTensor(g, []int{40, 50, 45}, 14, 3, 0.02)
	st, err := eng.NewStream(context.Background(), full, WithRank(3), WithMaxIters(8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "explicit.dpc2")
	if err := eng.SaveStream(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResumeStream(context.Background(), path); err != nil {
		t.Fatal(err)
	}

	eng.Close()
	if err := eng.SaveStream(path, st); err != ErrEngineClosed {
		t.Fatalf("SaveStream on closed engine: %v", err)
	}
	if _, err := eng.ResumeStream(context.Background(), path); err != ErrEngineClosed {
		t.Fatalf("ResumeStream on closed engine: %v", err)
	}
}

// TestEngineDurableOptionValidation: the eager-validation contract extends to
// the durable-state options.
func TestEngineDurableOptionValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("WithStateDir empty", func() { NewEngine(WithStateDir("")) })
	expectPanic("WithResultCache zero", func() { NewEngine(WithResultCache(0)) })
	expectPanic("WithResultCache negative", func() { NewEngine(WithResultCache(-1)) })
	expectPanic("cache without state dir", func() { NewEngine(WithResultCache(1 << 20)) })
}

// TestNewEngineSweepsStaleTemps: a SaveStream killed mid-write leaves a hidden
// ".<name>.tmp-*" orphan in the state dir; the next engine built on that dir
// must sweep it at init, while visible checkpoints survive untouched.
func TestNewEngineSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".run.dpc2.tmp-12345")
	keep := filepath.Join(dir, "run.dpc2")
	for _, p := range []string{orphan, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir))
	defer eng.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived NewEngine (stat err: %v)", orphan, err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("visible checkpoint swept: %v", err)
	}
}
