package repro

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataio"
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

// jobRes returns a job's Result, failing the test on an error.
func jobRes(t *testing.T, jr JobResult) *Result {
	t.Helper()
	res, err := jr.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustEncode returns res as the result cache stores it.
func mustEncode(t *testing.T, res *Result) EncodedResult {
	t.Helper()
	enc, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestEngineResultCacheHit is the tentpole acceptance test: a repeated
// Decompose is served from the cache without invoking the method, with
// hit/miss counters surfaced through Engine.Stats, per tenant on the Submit
// path.
func TestEngineResultCacheHit(t *testing.T) {
	cm := countingDPar2(t)
	dir := t.TempDir()
	eng := NewEngine(
		WithEngineThreads(2),
		WithStateDir(dir),
		WithResultCache(1<<22),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(11)
	knobs := withConfig(engineTestConfig())
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	first, err := eng.Decompose(ctx, ten, knobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("first Decompose invoked the method %d times", got)
	}

	second, err := eng.Decompose(ctx, ten, knobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("cache hit still invoked the method (%d total calls)", got)
	}
	resultsEqualBits(t, first, second)

	def := eng.Stats().Tenant("")
	if def.CacheHits != 1 || def.CacheMisses != 1 {
		t.Fatalf("Engine.Stats default tenant cache counters = (%d, %d), want (1, 1)",
			def.CacheHits, def.CacheMisses)
	}

	// The Submit path consults the same cache and attributes the hit to the
	// job's tenant.
	jr := <-eng.Submit(ctx, Job{Tensor: ten, Options: []Option{knobs, opt}, Tenant: "acme"})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("submitted job missed the cache (%d total calls)", got)
	}
	resultsEqualBits(t, first, jobRes(t, jr))
	if acme := eng.Stats().Tenant("acme"); acme.CacheHits != 1 {
		t.Fatalf("tenant acme cache hits = %d, want 1", acme.CacheHits)
	}

	// A different knob is a different key: changing the rank must miss.
	if _, err := eng.Decompose(ctx, ten, knobs, opt, WithRank(3)); err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 2 {
		t.Fatalf("rank change should have missed the cache (%d total calls)", got)
	}
}

// TestEngineJobDigestKeysTheCache: a Job's Digest stands in for hashing its
// tensor. The key is the same with and without the supplied digest, a Job
// carrying DigestTensor(a) hits the entry an in-process Decompose(a)
// stored, and a Job carrying b's digest over tensor a is served b's entry —
// so the key reads the digest and never hashes the tensor again.
func TestEngineJobDigestKeysTheCache(t *testing.T) {
	cm := countingDPar2(t)
	eng := NewEngine(WithEngineThreads(2), WithStateDir(t.TempDir()), WithResultCache(1<<22))
	defer eng.Close()
	ctx := context.Background()
	a, b := engineTestTensor(21), engineTestTensor(22)
	opts := []Option{withConfig(engineTestConfig()), WithMethod(MethodID(cm.Name()))}
	da, err := DigestTensor(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DigestTensor(b)
	if err != nil {
		t.Fatal(err)
	}

	_, m, cfg, err := eng.prepare(ctx, opts, false, "test")
	if err != nil {
		t.Fatal(err)
	}
	hashed, ok := eng.resultCacheKey(m, a, cfg, nil)
	supplied, ok2 := eng.resultCacheKey(m, a, cfg, &da)
	if !ok || !ok2 || hashed != supplied {
		t.Fatalf("key with supplied digest %q (%v), hashed %q (%v)", supplied, ok2, hashed, ok)
	}

	before := cm.calls.Load()
	wantA, err := eng.Decompose(ctx, a, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := eng.Decompose(ctx, b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if wantA.Fitness == wantB.Fitness {
		t.Fatal("the two tensors' results are indistinguishable")
	}

	jr := <-eng.Submit(ctx, Job{Tensor: a, Digest: &da, Options: opts, Tenant: "digest"})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	resultsEqualBits(t, wantA, jobRes(t, jr))
	if st := eng.Stats().Tenant("digest"); st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("digest tenant cache counters = (%d, %d), want (1, 0)", st.CacheHits, st.CacheMisses)
	}

	jr = <-eng.Submit(ctx, Job{Tensor: a, Digest: &db, Options: opts, Tenant: "digest"})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	resultsEqualBits(t, wantB, jobRes(t, jr))
	if got := cm.calls.Load() - before; got != 2 {
		t.Fatalf("method ran %d times, want 2 (the two in-process misses)", got)
	}
	if hits := eng.Stats().Tenant("digest").CacheHits; hits != 2 {
		t.Fatalf("digest tenant cache hits = %d, want 2", hits)
	}
}

// TestJobResultForms: a JobResult holds a success in the form the Engine
// produced it and converts only when asked. A cacheable miss keeps its
// computed Result and the bytes it stored; a hit holds only its entry's
// bytes, undecoded until Result; a run without the cache is never encoded
// until Encoded. Every form reads back as the computed result: Result bit
// for bit, Encoded as WriteResult's bytes and the run metadata. A failed
// job reports its Err from both.
func TestJobResultForms(t *testing.T) {
	ctx := context.Background()
	ten := engineTestTensor(23)
	knobs := []Option{withConfig(engineTestConfig())}
	cached := NewEngine(WithEngineThreads(2), WithStateDir(t.TempDir()), WithResultCache(1<<22))
	defer cached.Close()
	plain := NewEngine(WithEngineThreads(2))
	defer plain.Close()

	forms := map[string]JobResult{
		"miss": <-cached.Submit(ctx, Job{Tensor: ten, Options: knobs}),
		"hit":  <-cached.Submit(ctx, Job{Tensor: ten, Options: knobs}),
	}
	forms["uncached"] = <-plain.Submit(ctx, Job{Tensor: ten, Options: knobs})
	if st := cached.Stats().Tenant(""); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters (%d, %d), want (1, 1)", st.CacheHits, st.CacheMisses)
	}
	if jr := forms["miss"]; jr.res == nil || jr.enc.DPF2 == nil {
		t.Fatal("a cacheable miss did not keep both its result and its stored bytes")
	}
	if forms["hit"].res != nil {
		t.Fatal("a cache hit was decoded before Result was called")
	}
	if forms["uncached"].enc.DPF2 != nil {
		t.Fatal("a run without the cache was encoded before Encoded was called")
	}

	computed := jobRes(t, forms["uncached"])
	var want bytes.Buffer
	if err := dataio.WriteResult(&want, computed); err != nil {
		t.Fatal(err)
	}
	for name, jr := range forms {
		resultsEqualBits(t, computed, jobRes(t, jr))
		enc, err := jr.Encoded()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(enc.DPF2, want.Bytes()) {
			t.Errorf("%s: encoded bytes differ from WriteResult of the computed result", name)
		}
		if enc.Fitness != computed.Fitness || enc.FitnessKind != computed.FitnessKind ||
			enc.Iters != computed.Iters || enc.PreprocessedBytes != computed.PreprocessedBytes {
			t.Errorf("%s: encoded metadata %v/%v/%d/%d, computed %v/%v/%d/%d", name,
				enc.Fitness, enc.FitnessKind, enc.Iters, enc.PreprocessedBytes,
				computed.Fitness, computed.FitnessKind, computed.Iters, computed.PreprocessedBytes)
		}
	}

	failed := <-cached.Submit(ctx, Job{Options: knobs})
	if _, err := failed.Result(); err == nil || err != failed.Err {
		t.Fatalf("failed job: Result error %v, Err %v", err, failed.Err)
	}
	if _, err := failed.Encoded(); err == nil || err != failed.Err {
		t.Fatalf("failed job: Encoded error %v, Err %v", err, failed.Err)
	}
}

// TestEngineNonFiniteNotCached: a tensor with one NaN entry fails with
// ErrNonFinite on every call. Only successes are cached, so the second call
// is no cache hit and fails the same way.
func TestEngineNonFiniteNotCached(t *testing.T) {
	eng := NewEngine(WithEngineThreads(2), WithStateDir(t.TempDir()), WithResultCache(1<<22))
	defer eng.Close()
	ten := engineTestTensor(12)
	ten.Slices[1].Data[3] = math.NaN()
	for call := 1; call <= 2; call++ {
		res, err := eng.Decompose(context.Background(), ten, withConfig(engineTestConfig()))
		if !errors.Is(err, ErrNonFinite) || res != nil {
			t.Fatalf("call %d: err %v (result returned: %v), want ErrNonFinite", call, err, res != nil)
		}
	}
	if hits := eng.Stats().Tenant("").CacheHits; hits != 0 {
		t.Fatalf("cache hits = %d, want 0", hits)
	}
}

// TestEngineCacheBypassesSideEffectRuns: Progress callbacks (the one way to
// trace convergence) must actually run, so those calls never consult or
// populate the cache.
func TestEngineCacheBypassesSideEffectRuns(t *testing.T) {
	cm := countingDPar2(t)
	eng := NewEngine(
		WithEngineThreads(2),
		WithStateDir(t.TempDir()),
		WithResultCache(1<<22),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(12)
	knobs := withConfig(engineTestConfig())
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	for i := 0; i < 3; i++ {
		calls := 0
		progress := WithProgress(func(int, float64) bool { calls++; return true })
		if _, err := eng.Decompose(ctx, ten, knobs, opt, progress); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatalf("run %d: Progress callback never ran", i)
		}
	}
	if got := cm.calls.Load() - before; got != 3 {
		t.Fatalf("side-effect runs were cached (%d calls, want 3)", got)
	}
	if def := eng.Stats().Tenant(""); def.CacheHits != 0 || def.CacheMisses != 0 {
		t.Fatalf("bypassed runs touched the cache: (%d, %d)", def.CacheHits, def.CacheMisses)
	}
}

// TestEngineCachePersistsAcrossEngines: the cache is on disk — a new Engine
// over the same state directory serves the previous engine's results.
func TestEngineCachePersistsAcrossEngines(t *testing.T) {
	cm := countingDPar2(t)
	dir := t.TempDir()
	ten := engineTestTensor(13)
	knobs := withConfig(engineTestConfig())
	opt := WithMethod(MethodID(cm.Name()))
	build := func() *Engine {
		return NewEngine(WithEngineThreads(2), WithStateDir(dir), WithResultCache(1<<22))
	}

	eng1 := build()
	first, err := eng1.Decompose(context.Background(), ten, knobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	before := cm.calls.Load()
	eng2 := build()
	defer eng2.Close()
	second, err := eng2.Decompose(context.Background(), ten, knobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cm.calls.Load() != before {
		t.Fatal("second engine re-ran a cached decomposition")
	}
	resultsEqualBits(t, first, second)
	if hits := eng2.Stats().Tenant("").CacheHits; hits != 1 {
		t.Fatalf("second engine hits = %d, want 1", hits)
	}
}

// TestEngineSaveResumeStream: the engine-level checkpoint path — relative
// paths under the state dir, atomic write, restore rebinding to the pool,
// and bit-identical continuation.
func TestEngineSaveResumeStream(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(WithEngineThreads(2), WithStateDir(dir))
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
	eng := NewEngine(WithEngineThreads(2))
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

	eng := NewEngine(WithEngineThreads(2), WithStateDir(dir))
	defer eng.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived NewEngine (stat err: %v)", orphan, err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("visible checkpoint swept: %v", err)
	}
}
