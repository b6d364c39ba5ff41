// Decomposition as a service: run the HTTP front end in-process, then use
// the typed client to upload a tensor, decompose it synchronously, poll an
// async job, and drive a durable streaming session — the same API the
// dpar2d daemon serves over a real socket (see docs/SERVICE.md).
//
//	go run ./examples/service
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"time"
)

import (
	"repro"
	"repro/internal/service"
)

func main() {
	ctx := context.Background()

	// One Engine serves everything: a shared pool, an admission-controlled
	// queue with a per-tenant quota, and traffic statistics.
	eng := repro.NewEngine(
		repro.WithEngineThreads(4),
		repro.WithTenantQuota(2, 1),
	)
	defer eng.Close()

	srv, err := service.New(service.Config{Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := service.NewClient(hs.URL, nil)

	// Upload: tensors travel as the hardened binary DPT2 format and are
	// content-addressed — re-uploading the same data is a no-op.
	g := repro.NewRNG(7)
	ten := repro.LowRankTensor(g, []int{80, 90, 70, 100, 60}, 50, 8, 0.02)
	info, err := client.UploadTensor(ctx, ten)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %s: K=%d J=%d (%d elements)\n",
		info.TensorID, info.K, info.J, info.Elements)

	// Synchronous decomposition. Only the knobs that differ from the
	// server's defaults travel; the reply echoes the fully resolved Spec.
	rank, seed := 8, uint64(42)
	res, resp, err := client.Decompose(ctx, service.DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     service.SpecRequest{Rank: &rank, Seed: &seed},
		Tenant:   "analytics",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sync decompose: fitness %.4f in %d iters (spec %+v)\n",
		res.Fitness, res.Iters, resp.Spec)

	// Async job: submit, poll, fetch. A decomposition identical to the one
	// above is served from the Engine's result path deterministically —
	// same tensor, same Spec, same bits.
	job, err := client.SubmitJob(ctx, service.DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     service.SpecRequest{Rank: &rank, Seed: &seed},
		Tenant:   "analytics",
	})
	if err != nil {
		log.Fatal(err)
	}
	for job.Status == service.JobPending {
		time.Sleep(20 * time.Millisecond)
		if job, err = client.JobStatus(ctx, job.JobID); err != nil {
			log.Fatal(err)
		}
	}
	jobRes, err := client.JobResult(ctx, job.JobID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async job %s: %s, fitness %.4f (matches sync: %v)\n",
		job.JobID, job.Status, jobRes.Fitness, jobRes.Fitness == res.Fitness)

	// Streaming session: the initial window is decomposed on create; later
	// absorbs warm-start from the current factors. On a daemon with -state
	// the session would also survive a restart (docs/SERVICE.md).
	stream, err := client.CreateStream(ctx, service.StreamCreateRequest{
		StreamID: "market-feed",
		TensorID: info.TensorID,
		Spec:     service.SpecRequest{Rank: &rank, Seed: &seed},
	})
	if err != nil {
		log.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		next := repro.LowRankTensor(g, []int{70, 80}, 50, 8, 0.02)
		if stream, err = client.Absorb(ctx, stream.StreamID, next); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stream %s: K=%d after absorb %d (fitness %.4f)\n",
			stream.StreamID, stream.K, stream.Absorbs, stream.Meta.Fitness)
	}

	// The quota in action: tenant "burst" may have 1 job running and 2 more
	// queued; the fourth concurrent submit is rejected with 429 and a
	// Retry-After hint.
	slowIters, slowTol := 400, 0.0
	var rejected *service.APIError
	for i := 0; i < 4; i++ {
		_, err := client.SubmitJob(ctx, service.DecomposeRequest{
			TensorID: info.TensorID,
			Spec:     service.SpecRequest{Rank: &rank, MaxIters: &slowIters, Tol: &slowTol},
			Tenant:   "burst",
		})
		if errors.As(err, &rejected) {
			break
		} else if err != nil {
			log.Fatal(err)
		}
	}
	if rejected != nil {
		fmt.Printf("quota: %s (HTTP %d, Retry-After %s)\n",
			rejected.Body.Code, rejected.Body.Status, rejected.RetryAfter)
	}

	// The server's own view of all this traffic.
	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served: %d tenants, %d tensors, %d streams\n",
		len(st.Engine.Tenants), st.Tensors, st.Streams)
}
