// Scalability: a miniature of the paper's Fig. 11 — how DPar2's running
// time grows with tensor size and rank compared to PARAFAC2-ALS — plus the
// Engine's batched job service running a fleet of decompositions against
// one shared pool.
//
//	go run ./examples/scalability
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// One Engine for the whole run: its worker pool (and warm scratch
	// arenas) are reused across every decomposition below instead of being
	// re-created per call.
	eng := repro.NewEngine(repro.WithEngineThreads(6))
	defer eng.Close()
	ctx := context.Background()

	fmt.Println("== running time vs tensor size (I x J x K, rank 10) ==")
	fmt.Printf("%-16s %12s %14s %8s\n", "size", "DPar2", "PARAFAC2-ALS", "ratio")
	for _, s := range [][3]int{{60, 60, 20}, {120, 60, 20}, {120, 120, 20}, {120, 120, 40}} {
		g := repro.NewRNG(1)
		ten := repro.RandomTensor(g, s[0], s[1], s[2])
		dp := mustRun(eng, ctx, ten, repro.WithMethod(repro.MethodDPar2), repro.WithMaxIters(10))
		als := mustRun(eng, ctx, ten, repro.WithMethod(repro.MethodALS), repro.WithMaxIters(10))
		fmt.Printf("%-16s %12v %14v %7.1fx\n",
			fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]),
			dp.Round(time.Millisecond), als.Round(time.Millisecond),
			als.Seconds()/dp.Seconds())
	}

	fmt.Println("\n== running time vs rank (120x120x40) ==")
	fmt.Printf("%-6s %12s %14s %8s\n", "rank", "DPar2", "PARAFAC2-ALS", "ratio")
	g := repro.NewRNG(2)
	ten := repro.RandomTensor(g, 120, 120, 40)
	for _, r := range []int{5, 10, 20, 40} {
		dp := mustRun(eng, ctx, ten,
			repro.WithMethod(repro.MethodDPar2), repro.WithRank(r), repro.WithMaxIters(10))
		als := mustRun(eng, ctx, ten,
			repro.WithMethod(repro.MethodALS), repro.WithRank(r), repro.WithMaxIters(10))
		fmt.Printf("%-6d %12v %14v %7.1fx\n", r,
			dp.Round(time.Millisecond), als.Round(time.Millisecond),
			als.Seconds()/dp.Seconds())
	}

	// One very tall slice is the stage-1 straggler and memory ceiling:
	// WithShardRows splits its sketch into row shards that spread across
	// the whole pool (and keep per-shard scratch arena-recyclable) while
	// producing an equivalent factorization.
	fmt.Println("\n== tall-slice sharding: one 32768-row slice (stage 1) ==")
	fmt.Printf("%-24s %12s %12s %10s\n", "ShardRows", "preprocess", "total", "fitness")
	gt := repro.NewRNG(3)
	tall := repro.LowRankTensor(gt, []int{32768, 2048, 3072}, 64, 10, 0.01)
	for _, sr := range []int{-1, 4096} {
		res, err := eng.Decompose(ctx, tall,
			repro.WithShardRows(sr), repro.WithMaxIters(10))
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d (8 shards)", sr)
		if sr < 0 {
			label = "off (whole slice)"
		}
		fmt.Printf("%-24s %12v %12v %10.6f\n", label,
			res.PreprocessTime.Round(time.Millisecond),
			res.TotalTime.Round(time.Millisecond), res.Fitness)
	}

	// The serving path: a fleet of tensors decomposed through the
	// admission-controlled job queue — per-tenant quotas keep the "noisy"
	// tenant's burst from starving anyone, the "interactive" tenant's
	// high-priority jobs overtake the pre-queued "batch" backlog, and
	// Engine.Stats aggregates it all into a served-traffic table. Every
	// job still shares the one pool and its scratch arenas, and results
	// stay bit-identical to serial runs whatever order the queue picks.
	fmt.Println("\n== admission-controlled job service: 3 tenants through Engine.Submit ==")
	srv := repro.NewEngine(
		repro.WithEnginePool(eng.Pool()), // share the pool; we keep ownership
		repro.WithJobConcurrency(2),
		repro.WithQueueDepth(16),
		repro.WithTenantQuota(8, 2),
		repro.WithTenantQuotaOverrides(map[string]repro.TenantQuota{
			"noisy": {MaxQueued: 2, MaxRunning: 1}, // one greedy tenant, contained
		}),
	)
	defer srv.Close()

	start := time.Now()
	var pending []<-chan repro.JobResult
	submit := func(tenant string, priority, n, rows int) {
		for i := 0; i < n; i++ {
			gi := repro.NewRNG(uint64(100 + len(pending)))
			pending = append(pending, srv.Submit(ctx, repro.Job{
				Tensor:   repro.RandomTensor(gi, rows, 80, 24),
				Tag:      fmt.Sprintf("%s-%02d", tenant, i),
				Tenant:   tenant,
				Priority: priority,
				Options: []repro.Option{
					repro.WithRank(10), repro.WithMaxIters(10), repro.WithSeed(uint64(i)),
				},
			}))
		}
	}
	submit("batch", 0, 6, 200)       // low-priority backlog, queued first
	submit("interactive", 10, 6, 60) // overtakes the backlog
	submit("noisy", 0, 8, 60)        // bursts past MaxQueued 2: excess rejected

	var rejected int
	for _, ch := range pending {
		jr := <-ch
		switch {
		case jr.Err == nil:
		case errors.Is(jr.Err, repro.ErrQuotaExceeded):
			rejected++ // the typed *QuotaError names the tenant
		default:
			log.Fatalf("%s: %v", jr.Tag, jr.Err)
		}
	}
	fmt.Print(srv.Stats())
	fmt.Printf("noisy submits rejected: %d\nfleet wall time: %v\n",
		rejected, time.Since(start).Round(time.Millisecond))
}

func mustRun(eng *repro.Engine, ctx context.Context, t *repro.Irregular, opts ...repro.Option) time.Duration {
	res, err := eng.Decompose(ctx, t, opts...)
	if err != nil {
		log.Fatal(err)
	}
	return res.TotalTime
}
