package service

import (
	"context"
	"math"
	"testing"
	"time"

	"repro"
)

// BenchmarkServiceDecomposeRoundTrip measures the transport tax: the same
// decomposition through a loopback HTTP server versus directly on the
// Engine. The headline metrics are http-ms (full round trip: JSON request,
// admission queue, decomposition, DPF2+base64 response) and overhead-ms
// (round trip minus the in-process time — serialization + HTTP + queue
// only), which scripts/benchsmoke.sh holds under its latency budget.
func BenchmarkServiceDecomposeRoundTrip(b *testing.B) {
	ts := newTestServer(b, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	g := repro.NewRNG(5)
	ten := repro.LowRankTensor(g, []int{60, 70, 50, 65}, 40, 6, 0.02)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		b.Fatal(err)
	}
	rank, seed, iters, tol := 6, uint64(9), 8, 0.0
	req := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: &rank, Seed: &seed, MaxIters: &iters, Tol: &tol},
	}
	opts := []repro.Option{
		repro.WithRank(rank), repro.WithSeed(seed), repro.WithMaxIters(iters), repro.WithTolerance(tol),
	}

	// Warm both paths once (pool arenas, HTTP connection) outside the timer.
	if _, err := ts.eng.Decompose(ctx, ten, opts...); err != nil {
		b.Fatal(err)
	}
	if _, _, err := ts.client.Decompose(ctx, req); err != nil {
		b.Fatal(err)
	}

	var direct, http time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := ts.eng.Decompose(ctx, ten, opts...); err != nil {
			b.Fatal(err)
		}
		direct += time.Since(start)

		start = time.Now()
		if _, _, err := ts.client.Decompose(ctx, req); err != nil {
			b.Fatal(err)
		}
		http += time.Since(start)
	}
	b.StopTimer()
	n := float64(b.N)
	directMS := direct.Seconds() * 1e3 / n
	httpMS := http.Seconds() * 1e3 / n
	b.ReportMetric(directMS, "direct-ms")
	b.ReportMetric(httpMS, "http-ms")
	b.ReportMetric(httpMS-directMS, "overhead-ms")
}

// BenchmarkServiceCacheHit measures a served result-cache hit at perfbench
// serve-mixed's shape: K=40 slices with long-tailed heights of 100-1200
// rows (11,308 in all), J=88, rank 10, 32 iterations — an 8.0 MB tensor
// whose 980,080-byte DPF2 sits in a 980,148-byte entry. Each op is one
// loopback POST /v1/decompose round trip: JSON request, admission queue,
// cache key, the entry read whole and checked in one sha256 pass, its DPF2
// bytes base64'd into the reply as read (never decoded or encoded on the
// server), and the client's decode. The one miss that fills the entry runs
// before the timer. The key reads the digest kept at upload; hashing the
// tensor again instead (a DPT2 encode plus two sha256 passes over it) would
// add most of a hit. scripts/benchsmoke.sh holds ns/op, allocs/op and B/op
// under its budgets, which a server-side decode or re-encode of the hit
// would exceed.
func BenchmarkServiceCacheHit(b *testing.B) {
	ts := newTestServer(b, Config{}, repro.WithEngineThreads(2),
		repro.WithStateDir(b.TempDir()), repro.WithResultCache(1<<28))
	ctx := context.Background()
	const k, lo, hi = 40, 100, 1200
	rows := make([]int, k)
	for i := range rows {
		u := (float64(i) + 0.5) / k
		rows[i] = lo + int(float64(hi-lo)*math.Pow(u, 5))
	}
	info, err := ts.client.UploadTensor(ctx, repro.LowRankTensor(repro.NewRNG(7), rows, 88, 10, 0.02))
	if err != nil {
		b.Fatal(err)
	}
	req := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(10), Seed: u64p(1), MaxIters: intp(32), Tol: f64p(0)},
	}
	if _, _, err := ts.client.Decompose(ctx, req); err != nil { // warm: the one miss
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ts.client.Decompose(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := ts.eng.Stats().Tenant(""); st.CacheMisses != 1 || st.CacheHits != int64(b.N) {
		b.Fatalf("cache did not serve the loop: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
}
