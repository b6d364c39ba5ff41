package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dataio"
)

// testServer bundles one Engine + Server + loopback listener + client.
type testServer struct {
	eng    *repro.Engine
	srv    *Server
	hs     *httptest.Server
	client *Client
}

func newTestServer(t testing.TB, cfg Config, engOpts ...repro.EngineOption) *testServer {
	t.Helper()
	eng := repro.NewEngine(engOpts...)
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		eng.Close()
	})
	return &testServer{eng: eng, srv: srv, hs: hs, client: NewClient(hs.URL, nil)}
}

func testTensor(seed uint64) *repro.Irregular {
	g := repro.NewRNG(seed)
	return repro.LowRankTensor(g, []int{50, 60, 45, 55}, 30, 5, 0.02)
}

func resultBytes(t *testing.T, res *repro.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func intp(v int) *int         { return &v }
func u64p(v uint64) *uint64   { return &v }
func f64p(v float64) *float64 { return &v }

// TestDecomposeBitIdenticalOverHTTP is the e2e determinism contract: the
// same DPT2 bytes decomposed in-process and through the HTTP server produce
// bit-identical factored results — the transport adds nothing and loses
// nothing.
func TestDecomposeBitIdenticalOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	ten := testTensor(11)

	direct, err := ts.eng.Decompose(ctx, ten,
		repro.WithRank(5), repro.WithSeed(9), repro.WithMaxIters(10), repro.WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	directRaw := resultBytes(t, direct)

	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	res, resp, err := ts.client.Decompose(ctx, DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(5), Seed: u64p(9), MaxIters: intp(10), Tol: f64p(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.ResultDPF2, directRaw) {
		t.Fatal("HTTP decomposition differs from the in-process result bits")
	}
	if res.Fitness != direct.Fitness || res.Iters != direct.Iters {
		t.Fatalf("metadata differs: fitness %v vs %v, iters %d vs %d",
			res.Fitness, direct.Fitness, res.Iters, direct.Iters)
	}

	// The echoed Spec is the same canonical Spec in-process resolution gives.
	want, err := ts.eng.ResolveSpec(
		repro.WithRank(5), repro.WithSeed(9), repro.WithMaxIters(10), repro.WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Spec != want {
		t.Fatalf("echoed spec %+v, want %+v", resp.Spec, want)
	}

	// Replaying the echoed Spec verbatim (SpecRequest.Full) is equally
	// bit-identical — the client-side rerun contract.
	full := resp.Spec
	_, resp2, err := ts.client.Decompose(ctx, DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Full: &full},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp2.ResultDPF2, directRaw) {
		t.Fatal("replayed-Spec decomposition differs from the in-process result bits")
	}
}

// TestAsyncJobRoundTrip: submit, poll to completion, fetch the result, and
// check it matches the synchronous bits; DELETE then forgets the record.
func TestAsyncJobRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	ten := testTensor(12)

	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(4), Seed: u64p(3), MaxIters: intp(8), Tol: f64p(0)},
	}
	_, sync, err := ts.client.Decompose(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	job, err := ts.client.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && job.Status == JobPending; i++ {
		time.Sleep(10 * time.Millisecond)
		if job, err = ts.client.JobStatus(ctx, job.JobID); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != JobDone {
		t.Fatalf("job stuck in %q", job.Status)
	}
	if job.Spec != sync.Spec {
		t.Fatalf("job spec %+v, want %+v", job.Spec, sync.Spec)
	}
	var raw []byte
	if err := ts.client.do(ctx, http.MethodGet, "/v1/jobs/"+job.JobID+"/result", nil, &raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, sync.ResultDPF2) {
		t.Fatal("async result differs from the synchronous bits")
	}
	if err := ts.client.CancelJob(ctx, job.JobID); err != nil {
		t.Fatal(err)
	}
	var ae *APIError
	if _, err := ts.client.JobStatus(ctx, job.JobID); !errors.As(err, &ae) || ae.Body.Code != CodeNotFound {
		t.Fatalf("deleted job still visible: %v", err)
	}
}

// TestQuotaExhaustion429ThenRetry is satellite (b)'s quota sequence: a
// burst over the tenant quota gets 429 with Retry-After; once the backlog
// clears, the same request succeeds.
func TestQuotaExhaustion429ThenRetry(t *testing.T) {
	ts := newTestServer(t, Config{},
		repro.WithEngineThreads(1),
		repro.WithJobConcurrency(1),
		repro.WithTenantQuota(1, 1),
	)
	ctx := context.Background()
	ten := testTensor(13)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	// Tol 0 never converges early, so the iteration budget alone sets the
	// runtime: large enough that the first job is still running while the
	// burst lands (cancellation reclaims the time afterwards).
	slow := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(4), MaxIters: intp(200000), Tol: f64p(0)},
		Tenant:   "burst",
	}

	// Quota (1,1): at most 1 running + 1 queued, so within the first 3
	// submits one must be rejected with 429.
	var rejected *APIError
	var handles []string
	for i := 0; i < 3 && rejected == nil; i++ {
		job, err := ts.client.SubmitJob(ctx, slow)
		if err == nil {
			handles = append(handles, job.JobID)
			continue
		}
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatal(err)
		}
		rejected = ae
	}
	if rejected == nil {
		t.Fatal("no 429 within 3 over-quota submits")
	}
	if rejected.Body.Status != http.StatusTooManyRequests || rejected.Body.Code != CodeQuotaExhausted {
		t.Fatalf("rejection was %+v, want 429 %s", rejected.Body, CodeQuotaExhausted)
	}
	if rejected.Body.Tenant != "burst" {
		t.Fatalf("rejection tenant %q, want burst", rejected.Body.Tenant)
	}
	if rejected.RetryAfter == "" {
		t.Fatal("429 missing Retry-After header")
	}

	// Drain the backlog (cancel frees the queued quota immediately; the
	// running job stops at its next inter-iteration ctx check)...
	for _, id := range handles {
		if err := ts.client.CancelJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// ...then the retry loop a polite client runs must succeed.
	fast := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(4), MaxIters: intp(4), Tol: f64p(0)},
		Tenant:   "burst",
	}
	var lastErr error
	for i := 0; i < 200; i++ {
		if _, _, lastErr = ts.client.Decompose(ctx, fast); lastErr == nil {
			return
		}
		var ae *APIError
		if !errors.As(lastErr, &ae) || ae.Body.Status != http.StatusTooManyRequests {
			t.Fatal(lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("retry after quota drain never succeeded: %v", lastErr)
}

// TestStreamResumeBitIdentical is the session-durability contract at the
// service layer: a server abandoned without any shutdown hook (the hard-kill
// case — the after-absorb checkpoint is all that survives) restarts into a
// stream whose further absorbs are bit-identical to an uninterrupted one.
func TestStreamResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ten := testTensor(21)
	g := repro.NewRNG(22)
	batch1 := repro.LowRankTensor(g, []int{40, 35}, 30, 5, 0.02)
	batch2 := repro.LowRankTensor(g, []int{45, 50}, 30, 5, 0.02)
	spec := SpecRequest{Rank: intp(5), Seed: u64p(7), MaxIters: intp(8), Tol: f64p(0)}

	// First server: create + one absorb, then vanish without Close.
	eng1 := repro.NewEngine(repro.WithEngineThreads(2))
	srv1, err := New(Config{Engine: eng1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1)
	c1 := NewClient(hs1.URL, nil)
	info, err := c1.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	created, err := c1.CreateStream(ctx, StreamCreateRequest{
		StreamID: "sess", TensorID: info.TensorID, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !created.Durable || created.Resumed {
		t.Fatalf("fresh durable stream reported %+v", created)
	}
	if _, err := c1.Absorb(ctx, "sess", batch1); err != nil {
		t.Fatal(err)
	}
	ck, err := c1.CheckpointStream(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if ck.StreamID != "sess" || !ck.Durable || ck.K != ten.K()+batch1.K() || ck.Absorbs != 1 {
		t.Fatalf("explicit checkpoint returned %+v", ck)
	}
	hs1.Close()
	eng1.Close() // the process dies; no srv1.Close, no final checkpoint

	// Second server on the same state dir: the session is back.
	eng2 := repro.NewEngine(repro.WithEngineThreads(2))
	defer eng2.Close()
	srv2, err := New(Config{Engine: eng2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	c2 := NewClient(hs2.URL, nil)

	resumed, err := c2.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Durable {
		t.Fatalf("stream not marked resumed: %+v", resumed)
	}
	if resumed.K != ten.K()+batch1.K() {
		t.Fatalf("resumed K=%d, want %d", resumed.K, ten.K()+batch1.K())
	}
	if resumed.Spec.Rank != 5 || resumed.Spec.Seed != 7 {
		t.Fatalf("resumed spec lost: %+v", resumed.Spec)
	}
	if _, err := c2.Absorb(ctx, "sess", batch2); err != nil {
		t.Fatal(err)
	}
	served, err := c2.StreamResultBytes(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same stream never interrupted, fully in-process.
	eng3 := repro.NewEngine(repro.WithEngineThreads(2))
	defer eng3.Close()
	st, err := eng3.NewStream(ctx, ten,
		repro.WithRank(5), repro.WithSeed(7), repro.WithMaxIters(8), repro.WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, batch1.Slices); err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, batch2.Slices); err != nil {
		t.Fatal(err)
	}
	if want := resultBytes(t, st.Result()); !bytes.Equal(served, want) {
		t.Fatal("resumed stream result differs from the uninterrupted stream bits")
	}
}

// TestFailedCheckpointLeavesStreamUnchanged: an absorb whose checkpoint
// fails is answered with an error and leaves the session at the last
// acknowledged state, so retrying it absorbs the batch exactly once —
// bit-identical to a stream that never saw the failure.
func TestFailedCheckpointLeavesStreamUnchanged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts := newTestServer(t, Config{StateDir: dir}, repro.WithEngineThreads(2))
	ten := testTensor(41)
	batch := repro.LowRankTensor(repro.NewRNG(42), []int{40, 35}, 30, 5, 0.02)
	spec := SpecRequest{Rank: intp(5), Seed: u64p(7), MaxIters: intp(8), Tol: f64p(0)}

	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.CreateStream(ctx, StreamCreateRequest{
		StreamID: "sess", TensorID: info.TensorID, Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}

	// A regular file where the stream directory belongs makes SaveStream's
	// MkdirAll fail, even for a root test run that a chmod would not stop.
	streams := filepath.Join(dir, "streams")
	if err := os.Rename(streams, streams+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streams, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ts.client.Absorb(ctx, "sess", batch)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Body.Status != http.StatusInternalServerError {
		t.Fatalf("absorb with a failing checkpoint: err = %v, want a 500", err)
	}
	got, err := ts.client.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if got.K != ten.K() || got.Absorbs != 0 {
		t.Fatalf("failed absorb moved the session to K=%d absorbs=%d, want K=%d absorbs=0",
			got.K, got.Absorbs, ten.K())
	}

	// Restore the directory and retry.
	if err := os.Remove(streams); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(streams+".aside", streams); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.Absorb(ctx, "sess", batch); err != nil {
		t.Fatal(err)
	}
	served, err := ts.client.StreamResultBytes(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}

	st, err := ts.eng.NewStream(ctx, ten,
		repro.WithRank(5), repro.WithSeed(7), repro.WithMaxIters(8), repro.WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(ctx, batch.Slices); err != nil {
		t.Fatal(err)
	}
	if want := resultBytes(t, st.Result()); !bytes.Equal(served, want) {
		t.Fatal("retried absorb differs from a stream that absorbed the batch once")
	}
}

// TestErrorTaxonomy pins the wire mapping of every documented error class.
func TestErrorTaxonomy(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(1))
	ctx := context.Background()

	expect := func(t *testing.T, err error, status int, code string) *APIError {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("error %v (%T) is not an APIError", err, err)
		}
		if ae.Body.Status != status || ae.Body.Code != code {
			t.Fatalf("got %d %s (%s), want %d %s", ae.Body.Status, ae.Body.Code, ae.Body.Message, status, code)
		}
		return ae
	}

	t.Run("not_found", func(t *testing.T) {
		_, err := ts.client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ts.client.JobStatus(ctx, "job-999")
		expect(t, err, http.StatusNotFound, CodeNotFound)
		_, err = ts.client.StreamInfo(ctx, "nope")
		expect(t, err, http.StatusNotFound, CodeNotFound)
		_, _, err = ts.client.Decompose(ctx, DecomposeRequest{TensorID: "t-missing"})
		expect(t, err, http.StatusNotFound, CodeNotFound)
	})

	t.Run("bad_json", func(t *testing.T) {
		resp, err := http.Post(ts.hs.URL+"/v1/decompose", "application/json",
			bytes.NewReader([]byte("{not json")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad JSON got HTTP %d", resp.StatusCode)
		}
	})

	t.Run("corrupt_tensor", func(t *testing.T) {
		resp, err := http.Post(ts.hs.URL+"/v1/tensors", "application/octet-stream",
			bytes.NewReader([]byte("DPX9 this is not a tensor")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("corrupt tensor got HTTP %d", resp.StatusCode)
		}
	})

	t.Run("bad_spec", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = ts.client.Decompose(ctx, DecomposeRequest{
			TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(-2)},
		})
		expect(t, err, http.StatusBadRequest, CodeBadRequest)
	})

	t.Run("deadline_504", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = ts.client.Decompose(ctx, DecomposeRequest{
			TensorID:      info.TensorID,
			Spec:          SpecRequest{Rank: intp(4), MaxIters: intp(5000), Tol: f64p(0)},
			TimeoutMillis: 1,
		})
		expect(t, err, http.StatusGatewayTimeout, CodeDeadlineExceeded)
	})

	t.Run("stream_conflict", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		req := StreamCreateRequest{StreamID: "dup", TensorID: info.TensorID,
			Spec: SpecRequest{Rank: intp(3), MaxIters: intp(2), Tol: f64p(0)}}
		if _, err := ts.client.CreateStream(ctx, req); err != nil {
			t.Fatal(err)
		}
		_, err = ts.client.CreateStream(ctx, req)
		expect(t, err, http.StatusConflict, CodeConflict)
	})

	t.Run("bad_stream_id", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ts.client.CreateStream(ctx, StreamCreateRequest{
			StreamID: "../escape", TensorID: info.TensorID})
		expect(t, err, http.StatusBadRequest, CodeBadRequest)
	})

	t.Run("checkpoint_memory_only", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.client.CreateStream(ctx, StreamCreateRequest{
			StreamID: "mem", TensorID: info.TensorID,
			Spec: SpecRequest{Rank: intp(3), MaxIters: intp(2), Tol: f64p(0)},
		}); err != nil {
			t.Fatal(err)
		}
		_, err = ts.client.CheckpointStream(ctx, "mem")
		expect(t, err, http.StatusBadRequest, CodeBadRequest)
	})

	t.Run("result_not_ready", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		job, err := ts.client.SubmitJob(ctx, DecomposeRequest{
			TensorID: info.TensorID,
			Spec:     SpecRequest{Rank: intp(4), MaxIters: intp(200000), Tol: f64p(0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != JobPending {
			t.Fatalf("200k-iteration job already %q at submit", job.Status)
		}
		_, err = ts.client.JobResult(ctx, job.JobID)
		expect(t, err, http.StatusConflict, CodeResultNotReady)
		if err := ts.client.CancelJob(ctx, job.JobID); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEngineClosed503: every entry point on a closed engine is 503 with
// Retry-After (a rolling restart tells clients to come back, not give up).
func TestEngineClosed503(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(1))
	ctx := context.Background()
	info, err := ts.client.UploadTensor(ctx, testTensor(41))
	if err != nil {
		t.Fatal(err)
	}
	ts.eng.Close()
	_, _, err = ts.client.Decompose(ctx, DecomposeRequest{
		TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(3)},
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Body.Status != http.StatusServiceUnavailable || ae.Body.Code != CodeEngineClosed {
		t.Fatalf("closed engine surfaced as %v", err)
	}
	if ae.RetryAfter == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// TestBodyCap413: a request body over the configured cap is 413, on the
// binary upload path and the JSON path alike.
func TestBodyCap413(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 4 << 10}, repro.WithEngineThreads(1))
	ctx := context.Background()
	_, err := ts.client.UploadTensor(ctx, testTensor(51)) // ~200KB of floats
	var ae *APIError
	if !errors.As(err, &ae) || ae.Body.Status != http.StatusRequestEntityTooLarge || ae.Body.Code != CodeBodyTooLarge {
		t.Fatalf("oversized upload surfaced as %v", err)
	}
	// Valid JSON the whole way, so the decoder keeps reading until the byte
	// cap trips (invalid bytes would 400 on syntax before reaching it).
	big := []byte(`{"tensor_id":"` + strings.Repeat("a", 8<<10) + `"}`)
	resp, err := http.Post(ts.hs.URL+"/v1/decompose", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON got HTTP %d", resp.StatusCode)
	}
}

// TestTensorStoreContentAddressedAndEvicting: same tensor → same ID; the
// table evicts LRU beyond its cap.
func TestTensorStoreContentAddressedAndEvicting(t *testing.T) {
	ts := newTestServer(t, Config{MaxTensors: 2}, repro.WithEngineThreads(1))
	ctx := context.Background()
	a, err := ts.client.UploadTensor(ctx, testTensor(61))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ts.client.UploadTensor(ctx, testTensor(61))
	if err != nil {
		t.Fatal(err)
	}
	if a.TensorID != a2.TensorID {
		t.Fatalf("same tensor got different ids: %s vs %s", a.TensorID, a2.TensorID)
	}
	if _, err := ts.client.UploadTensor(ctx, testTensor(62)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.UploadTensor(ctx, testTensor(63)); err != nil {
		t.Fatal(err)
	}
	// a is the LRU victim now.
	st, err := ts.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tensors != 2 {
		t.Fatalf("tensor table has %d entries, cap 2", st.Tensors)
	}
	var raw TensorInfo
	err = ts.client.do(ctx, http.MethodGet, "/v1/tensors/"+a.TensorID, nil, &raw)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Body.Code != CodeNotFound {
		t.Fatalf("evicted tensor still served: %v", err)
	}
}

// TestStatsEndpoint: the traffic snapshot flows through with deterministic
// tenant ordering and the server's own resource counts.
func TestStatsEndpoint(t *testing.T) {
	stats := &repro.EngineStats{}
	ts := newTestServer(t, Config{Stats: stats},
		repro.WithEngineThreads(1), repro.WithEngineMetrics(stats))
	ctx := context.Background()
	info, err := ts.client.UploadTensor(ctx, testTensor(71))
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"zeta", "alpha"} {
		_, _, err := ts.client.Decompose(ctx, DecomposeRequest{
			TensorID: info.TensorID,
			Spec:     SpecRequest{Rank: intp(3), MaxIters: intp(2), Tol: f64p(0)},
			Tenant:   tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := ts.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine == nil {
		t.Fatal("stats reply missing engine snapshot")
	}
	if len(st.Engine.Tenants) != 2 || st.Engine.Tenants[0].Tenant != "alpha" || st.Engine.Tenants[1].Tenant != "zeta" {
		t.Fatalf("tenants not deterministic: %+v", st.Engine.Tenants)
	}
	if st.Tensors != 1 {
		t.Fatalf("tensor count %d, want 1", st.Tensors)
	}
	if err := ts.client.Health(ctx); err != nil {
		t.Fatal(err)
	}
}
