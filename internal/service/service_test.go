package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
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

// awaitJob submits req as an async job and polls it until it is done.
func awaitJob(t *testing.T, c *Client, req DecomposeRequest) JobStatus {
	t.Helper()
	ctx := context.Background()
	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && job.Status == JobPending; i++ {
		time.Sleep(10 * time.Millisecond)
		if job, err = c.JobStatus(ctx, job.JobID); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != JobDone {
		t.Fatalf("job ended %q", job.Status)
	}
	return job
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

// TestGranularFieldOverridesFull: a granular field present beside full wins
// over full's value in both directions, an explicit "nonneg_s": false
// included, and the echoed Spec says so.
func TestGranularFieldOverridesFull(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	info, err := ts.client.UploadTensor(ctx, testTensor(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, nonneg := range []bool{false, true} {
		full := repro.DefaultSpec()
		full.Rank, full.MaxIters, full.NonnegativeS = 3, 2, !nonneg
		_, resp, err := ts.client.Decompose(ctx, DecomposeRequest{
			TensorID: info.TensorID,
			Spec:     SpecRequest{Full: &full, NonnegativeS: &nonneg},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := full
		want.NonnegativeS = nonneg
		if resp.Spec != want {
			t.Fatalf("full nonneg_s %v with nonneg_s %v: echoed spec %+v, want %+v", !nonneg, nonneg, resp.Spec, want)
		}
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

	job := awaitJob(t, ts.client, req)
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

	// First server: create + one absorb, then vanish with no shutdown hook.
	eng1 := repro.NewEngine(repro.WithEngineThreads(2), repro.WithStateDir(dir))
	srv1, err := New(Config{Engine: eng1})
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
	ck, err := c1.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if ck.StreamID != "sess" || !ck.Durable || ck.K != ten.K()+batch1.K() || ck.Absorbs != 1 {
		t.Fatalf("stream after one absorb reports %+v", ck)
	}
	hs1.Close()
	eng1.Close() // the process dies; the after-absorb checkpoint is all that survives

	// Second server on the same state dir: the session is back.
	eng2 := repro.NewEngine(repro.WithEngineThreads(2), repro.WithStateDir(dir))
	defer eng2.Close()
	srv2, err := New(Config{Engine: eng2})
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
	// The second batch goes through the JSON envelope: upload, then absorb
	// by tensor_id.
	up2, err := c2.UploadTensor(ctx, batch2)
	if err != nil {
		t.Fatal(err)
	}
	absorbed, err := c2.AbsorbTensor(ctx, "sess", up2.TensorID)
	if err != nil {
		t.Fatal(err)
	}
	served, err := c2.StreamResultBytes(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := c2.StreamResult(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if m := absorbed.Meta; decoded.Fitness != m.Fitness ||
		decoded.FitnessKind.String() != m.FitnessKind || decoded.Iters != m.Iters {
		t.Fatalf("StreamResult metadata (fitness %v, kind %v, iters %d) differs from the absorb reply %+v",
			decoded.Fitness, decoded.FitnessKind, decoded.Iters, m)
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

// TestResumedStreamSpecFromCheckpoint: a stream checkpointed by the Engine
// alone — no file beside the checkpoint — resumes through New with the Spec
// it was created under, read back from the checkpoint itself.
func TestResumedStreamSpecFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng := repro.NewEngine(repro.WithEngineThreads(2))
	defer eng.Close()
	opts := []repro.Option{repro.WithRank(4), repro.WithSeed(11), repro.WithMaxIters(7),
		repro.WithTolerance(1e-9), repro.WithOversample(3), repro.WithPowerIters(2),
		repro.WithShardRows(4096), repro.WithRidge(1e-6), repro.WithNonnegativeS()}
	want, err := eng.ResolveSpec(opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.NewStream(ctx, testTensor(31), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveStream(filepath.Join(dir, "streams", "x.ckpt"), st); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "streams")); err != nil || len(ents) != 1 {
		t.Fatalf("streams dir holds %d entries (err %v), want just the checkpoint", len(ents), err)
	}

	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2), repro.WithStateDir(dir))
	info, err := ts.client.StreamInfo(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.Spec != want {
		t.Fatalf("resumed stream reports resumed=%v spec %+v, want %+v", info.Resumed, info.Spec, want)
	}
}

// TestResumeSweepsStaleCheckpointTemps: the temp file a checkpoint write
// killed mid-way leaves beside its target is removed when a server starts
// on the state dir, and the session it belonged to still resumes from its
// last complete checkpoint.
func TestResumeSweepsStaleCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng := repro.NewEngine(repro.WithEngineThreads(2), repro.WithStateDir(dir))
	defer eng.Close()
	ten := testTensor(33)
	st, err := eng.NewStream(ctx, ten, repro.WithRank(4), repro.WithSeed(3), repro.WithMaxIters(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveStream(streamFile("sess"), st); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "streams", ".sess.ckpt.tmp-123456")
	if err := os.WriteFile(orphan, []byte("torn checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2), repro.WithStateDir(dir))
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint temp survived server start (stat err %v)", err)
	}
	info, err := ts.client.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || !info.Durable || info.K != ten.K() {
		t.Fatalf("session beside the stale temp resumed as %+v", info)
	}
}

// TestFailedCheckpointLeavesStreamUnchanged: an absorb whose checkpoint
// fails is answered with an error and leaves the session at the last
// acknowledged state, so retrying it absorbs the batch exactly once —
// bit-identical to a stream that never saw the failure.
func TestFailedCheckpointLeavesStreamUnchanged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2), repro.WithStateDir(dir))
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

// TestDecomposeNonFiniteIs400: a tensor holding a NaN decomposes to a 400
// bad_request with a JSON error body, not a 200 whose body failed to encode.
func TestDecomposeNonFiniteIs400(t *testing.T) {
	ctx := context.Background()
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2))
	ten := testTensor(43)
	ten.Slices[2].Data[5] = math.NaN()
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(5), MaxIters: intp(8)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.hs.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil ||
		er.Error.Code != CodeBadRequest || !strings.Contains(er.Error.Message, "non-finite") {
		t.Fatalf("decompose of a NaN tensor: status %d, body %+v (decode error %v), want 400 %s",
			resp.StatusCode, er, decErr, CodeBadRequest)
	}
}

// TestAbsorbNonFiniteIs400: an absorb of a NaN batch is a 400 that leaves
// the durable session as it was, so the next clean absorb is bit-identical
// to a stream that never saw the bad batch.
func TestAbsorbNonFiniteIs400(t *testing.T) {
	ctx := context.Background()
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2), repro.WithStateDir(t.TempDir()))
	ten := testTensor(45)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.CreateStream(ctx, StreamCreateRequest{
		StreamID: "sess", TensorID: info.TensorID,
		Spec: SpecRequest{Rank: intp(5), Seed: u64p(7), MaxIters: intp(8), Tol: f64p(0)},
	}); err != nil {
		t.Fatal(err)
	}
	batch := repro.LowRankTensor(repro.NewRNG(44), []int{40, 35}, 30, 5, 0.02)
	bad := repro.LowRankTensor(repro.NewRNG(44), []int{40, 35}, 30, 5, 0.02)
	bad.Slices[0].Data[9] = math.NaN()
	_, err = ts.client.Absorb(ctx, "sess", bad)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Body.Status != http.StatusBadRequest || ae.Body.Code != CodeBadRequest {
		t.Fatalf("absorb of a NaN batch: err = %v, want a 400 %s", err, CodeBadRequest)
	}
	got, err := ts.client.StreamInfo(ctx, "sess")
	if err != nil {
		t.Fatal(err)
	}
	if got.K != ten.K() || got.Absorbs != 0 {
		t.Fatalf("rejected absorb moved the session to K=%d absorbs=%d, want K=%d absorbs=0",
			got.K, got.Absorbs, ten.K())
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
		t.Fatal("clean absorb after a rejected batch differs from a stream that never saw it")
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
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.client.CreateStream(ctx, StreamCreateRequest{
			StreamID: "absorb-missing", TensorID: info.TensorID,
			Spec: SpecRequest{Rank: intp(3), MaxIters: intp(2), Tol: f64p(0)},
		}); err != nil {
			t.Fatal(err)
		}
		_, err = ts.client.AbsorbTensor(ctx, "absorb-missing", "t-missing")
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

	t.Run("unknown_field", func(t *testing.T) {
		info, err := ts.client.UploadTensor(ctx, testTensor(31))
		if err != nil {
			t.Fatal(err)
		}
		// nonnegative_s is a misspelling of the nonneg_s wire name: it must
		// fail, not run the request without the constraint.
		body := `{"tensor_id":"` + info.TensorID + `","spec":{"rank":3,"max_iters":2,"nonnegative_s":true}}`
		err = ts.client.do(ctx, http.MethodPost, "/v1/decompose", json.RawMessage(body), nil)
		expect(t, err, http.StatusBadRequest, CodeBadJSON)
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

// TestServedPathsLeaveStoredTensorUnchanged: every served job on a stored
// tensor is keyed by the digest kept at upload, so no served path may
// mutate the tensor, or that digest would silently go stale. After a sync
// decompose (a miss, then a hit), an async job, a stream create and a JSON
// absorb naming the tensor, hashing it again must give the digest kept at
// upload, which still spells its tensor_id.
func TestServedPathsLeaveStoredTensorUnchanged(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(2),
		repro.WithStateDir(t.TempDir()), repro.WithResultCache(1<<24))
	ctx := context.Background()
	info, err := ts.client.UploadTensor(ctx, testTensor(81))
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: intp(4), Seed: u64p(5), MaxIters: intp(6), Tol: f64p(0)},
	}
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, _, err := ts.client.Decompose(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	req.Spec.Seed = u64p(6) // a fresh key: the async job runs the method
	awaitJob(t, ts.client, req)
	if _, err := ts.client.CreateStream(ctx, StreamCreateRequest{
		StreamID: "s", TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(4), MaxIters: intp(4)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.AbsorbTensor(ctx, "s", info.TensorID); err != nil {
		t.Fatal(err)
	}
	st, err := ts.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("cache counters (%d, %d), want (1, 2)", st.Cache.Hits, st.Cache.Misses)
	}

	ts.srv.mu.Lock()
	stored, ok := ts.srv.tensors.get(info.TensorID)
	ts.srv.mu.Unlock()
	if !ok {
		t.Fatal("uploaded tensor left the store")
	}
	got, err := repro.DigestTensor(stored.tensor)
	if err != nil {
		t.Fatal(err)
	}
	if got != stored.digest {
		t.Fatalf("stored tensor changed: digest %x, kept at upload %x", got, stored.digest)
	}
	if id := tensorID(got); id != info.TensorID {
		t.Fatalf("digest spells %s, tensor_id %s", id, info.TensorID)
	}
}

// TestCachedRepliesAreComputedBytes: with the result cache on, a hit is
// served as its entry's bytes, so every way of getting one decomposition —
// a sync miss, a sync hit, an async job's result served from the cache, the
// in-process Decompose's WriteResult, and a cacheless server's reply —
// yields the same DPF2 bytes and the same run metadata.
func TestCachedRepliesAreComputedBytes(t *testing.T) {
	cached := newTestServer(t, Config{}, repro.WithEngineThreads(2),
		repro.WithStateDir(t.TempDir()), repro.WithResultCache(1<<24))
	plain := newTestServer(t, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	ten := testTensor(91)
	spec := SpecRequest{Rank: intp(4), Seed: u64p(2), MaxIters: intp(7), Tol: f64p(0)}
	type reply struct {
		name string
		raw  []byte
		meta ResultMeta
	}
	var replies []reply
	decompose := func(name string, ts *testServer) string {
		info, err := ts.client.UploadTensor(ctx, ten)
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := ts.client.Decompose(ctx, DecomposeRequest{TensorID: info.TensorID, Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		replies = append(replies, reply{name, resp.ResultDPF2, resp.Meta})
		return info.TensorID
	}
	decompose("sync miss", cached)
	id := decompose("sync hit", cached)
	decompose("cacheless server", plain)

	job := awaitJob(t, cached.client, DecomposeRequest{TensorID: id, Spec: spec})
	var raw []byte
	if err := cached.client.do(ctx, http.MethodGet, "/v1/jobs/"+job.JobID+"/result", nil, &raw); err != nil {
		t.Fatal(err)
	}
	replies = append(replies, reply{"async job from the cache", raw, *job.Meta})

	direct, err := plain.eng.Decompose(ctx, ten, repro.WithRank(4), repro.WithSeed(2),
		repro.WithMaxIters(7), repro.WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	replies = append(replies, reply{"in-process Decompose", resultBytes(t, direct), metaOf(direct)})

	st, err := cached.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters (%d, %d), want (2, 1)", st.Cache.Hits, st.Cache.Misses)
	}
	want := replies[0]
	for _, r := range replies[1:] {
		if !bytes.Equal(r.raw, want.raw) {
			t.Errorf("%s: DPF2 bytes differ from the %s's", r.name, want.name)
		}
		if r.meta != want.meta {
			t.Errorf("%s: meta %+v, %s %+v", r.name, r.meta, want.name, want.meta)
		}
	}
}

// TestDamagedCacheEntryIsNeverServed: a hit goes from disk to the wire with
// the entry's trailer checksum as the only check, so an entry damaged on
// disk — one byte flipped inside its DPF2 region, or the file truncated —
// must read as a miss: the request recomputes, replies the right bytes and
// rewrites the entry, which then serves the next hit.
func TestDamagedCacheEntryIsNeverServed(t *testing.T) {
	for name, damage := range map[string]func(entry []byte) []byte{
		"flip-dpf2": func(entry []byte) []byte { entry[len(entry)/2] ^= 0x01; return entry },
		"truncate":  func(entry []byte) []byte { return entry[:len(entry)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ts := newTestServer(t, Config{}, repro.WithEngineThreads(2),
				repro.WithStateDir(dir), repro.WithResultCache(1<<24))
			ctx := context.Background()
			info, err := ts.client.UploadTensor(ctx, testTensor(92))
			if err != nil {
				t.Fatal(err)
			}
			req := DecomposeRequest{
				TensorID: info.TensorID,
				Spec:     SpecRequest{Rank: intp(4), Seed: u64p(8), MaxIters: intp(6), Tol: f64p(0)},
			}
			_, want, err := ts.client.Decompose(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			paths, err := filepath.Glob(filepath.Join(dir, "cache", "*.cache"))
			if err != nil || len(paths) != 1 {
				t.Fatalf("cache entries %v (%v), want one", paths, err)
			}
			entry, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			// The flipped byte lies past the 32-byte metadata header and
			// before the trailers: inside the DPF2 bytes a hit is served as.
			if err := os.WriteFile(paths[0], damage(bytes.Clone(entry)), 0o644); err != nil {
				t.Fatal(err)
			}

			for i, wantHits := range []uint64{0, 1} {
				_, got, err := ts.client.Decompose(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.ResultDPF2, want.ResultDPF2) || got.Meta != want.Meta {
					t.Fatalf("request %d after the damage: reply differs from the computed one", i)
				}
				st, err := ts.client.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st.Cache.Hits != wantHits || st.Cache.Misses != 2 {
					t.Fatalf("request %d after the damage: cache counters (%d, %d), want (%d, 2)",
						i, st.Cache.Hits, st.Cache.Misses, wantHits)
				}
				again, err := os.ReadFile(paths[0])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, entry) {
					t.Fatalf("request %d after the damage: entry on disk not rewritten", i)
				}
			}
		})
	}
}

// TestStatsEndpoint: the Engine's traffic snapshot flows through with
// deterministic tenant ordering and the server's own resource counts.
func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{}, repro.WithEngineThreads(1))
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
