// Streaming: maintain a PARAFAC2 decomposition while slices keep arriving —
// the future-work setting named in the paper's conclusion (cf. SPADE for
// sparse data). New slices are compressed once and folded into the existing
// two-stage representation; old slices are never touched again.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	g := repro.NewRNG(21)

	// The "full history" this stream will eventually have seen: 48 slices.
	rows := make([]int, 48)
	for i := range rows {
		rows[i] = 80 + 7*i%220
	}
	full := repro.LowRankTensor(g, rows, 40, 8, 0.03)

	// One Engine hosts both the stream and the from-scratch comparison run.
	eng := repro.NewEngine()
	defer eng.Close()
	ctx := context.Background()
	opts := []repro.Option{repro.WithRank(8), repro.WithMaxIters(20)}

	// Bootstrap with the first 12 slices.
	first, err := repro.NewIrregular(full.Slices[:12])
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	stream, err := eng.NewStream(ctx, first, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: K=%2d  fitness(all seen)=%.4f  (%v)\n",
		stream.K(), fitnessOverSeen(eng, full, stream), time.Since(start).Round(time.Millisecond))

	// Absorb the rest in batches of 6, as if they arrived over time. Each
	// absorb warm-starts from the previous factors and runs at most
	// stream.RefreshIters iterations instead of the full 20. The factors
	// stay in lazy factored form (Q_k = A_k Z_k P_kᵀ), so an absorb never
	// touches the already-absorbed slices — its latency is independent of
	// how much history the stream carries. A failed absorb is retryable:
	// the stream (RNG included) is untouched, and the retry is
	// bit-identical to a run that was never interrupted.
	// Streams are durable: SaveStream writes a complete, atomically-replaced
	// checkpoint (state, factors, RNG), and ResumeStream picks the stream
	// back up in another process as if nothing happened. We checkpoint
	// mid-stream here and prove the resumed copy is bit-identical below.
	ckptDir, err := os.MkdirTemp("", "streaming-ckpt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	ckpt := filepath.Join(ckptDir, "stream.dpc2")

	for lo := 12; lo < 48; lo += 6 {
		batchStart := time.Now()
		if err := stream.AbsorbCtx(ctx, full.Slices[lo:lo+6]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("absorb 6 : K=%2d  fitness(all seen)=%.4f  (%v, %d warm iters)\n",
			stream.K(), fitnessOverSeen(eng, full, stream),
			time.Since(batchStart).Round(time.Millisecond), stream.Result().Iters)
		if stream.K() == 30 {
			if err := eng.SaveStream(ckpt, stream); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("           checkpointed at K=%d\n", stream.K())
		}
	}

	// Resume the mid-stream checkpoint and feed it the batches it missed:
	// the catch-up is bit-identical to the stream that never stopped.
	resumed, err := eng.ResumeStream(ctx, ckpt)
	if err != nil {
		log.Fatal(err)
	}
	for lo := 30; lo < 48; lo += 6 {
		if err := resumed.AbsorbCtx(ctx, full.Slices[lo:lo+6]); err != nil {
			log.Fatal(err)
		}
	}
	identical := math.Float64bits(resumed.Result().Fitness) == math.Float64bits(stream.Result().Fitness) &&
		resumed.Result().H.EqualApprox(stream.Result().H, 0)
	fmt.Printf("\nresumed from K=30 checkpoint, caught up to K=%d: bit-identical=%v\n",
		resumed.K(), identical)

	// The refresh reports a compressed-space fitness (exact against the
	// compressed approximation); FitnessKind tells it apart from the true
	// fitness eng.Decompose reports.
	res := stream.Result()
	fmt.Printf("\nstream result: fitness %.4f (kind %q), K=%d, Q factored=%v\n",
		res.Fitness, res.FitnessKind, res.K(), res.Factored())
	u := res.Uk(0) // materialized lazily from A_0 Z_0 P_0ᵀ H
	fmt.Printf("U_0 is %dx%d, materialized on demand\n", u.Rows, u.Cols)

	// Compare against decomposing the full tensor from scratch.
	batch, err := eng.Decompose(ctx, full, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfrom-scratch on all 48 slices: fitness %.4f in %v\n",
		batch.Fitness, batch.TotalTime.Round(time.Millisecond))
	fmt.Printf("streaming final:               fitness %.4f (compressed state %.2f MB)\n",
		fitnessOverSeen(eng, full, stream), float64(stream.Compressed().SizeBytes())/(1<<20))
}

func fitnessOverSeen(eng *repro.Engine, full *repro.Irregular, s *repro.StreamingDPar2) float64 {
	seen, err := repro.NewIrregular(full.Slices[:s.K()])
	if err != nil {
		log.Fatal(err)
	}
	return eng.Fitness(seen, s.Result())
}
