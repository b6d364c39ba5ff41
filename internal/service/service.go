package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/dataio"
	"repro/internal/state"
)

// Defaults for Config's optional knobs.
const (
	DefaultMaxBodyBytes = int64(256 << 20) // 256 MiB: a ~32M-element DPT2 upload
	DefaultMaxTensors   = 64
)

// Config builds a Server.
type Config struct {
	// Engine serves every decomposition. Required; the caller keeps
	// ownership (Server.Close does not close it).
	Engine *repro.Engine

	// Stats, when non-nil, is served at /v1/stats. Pass the same value
	// registered on the Engine via repro.WithEngineMetrics so the snapshot
	// reflects served traffic.
	Stats *repro.EngineStats

	// StateDir roots the server's durable session state: stream checkpoints
	// (and their spec sidecars) live in its "streams" subdirectory, written
	// after create and after every absorb, and every checkpoint found there
	// is resumed when the server starts. Empty = sessions are memory-only.
	StateDir string

	// MaxBodyBytes caps every request body (default DefaultMaxBodyBytes);
	// an oversized body maps to 413. MaxTensors caps the uploaded-tensor
	// table (default DefaultMaxTensors), evicting least-recently-used.
	MaxBodyBytes int64
	MaxTensors   int
}

// Server is the HTTP front end over one repro.Engine. It implements
// http.Handler; see docs/SERVICE.md for the endpoint table and error
// taxonomy. Construct with New, serve with net/http, and Close before the
// process exits to checkpoint every durable stream.
type Server struct {
	eng      *repro.Engine
	stats    *repro.EngineStats
	stateDir string
	maxBody  int64
	mux      *http.ServeMux

	// mu guards the resource tables and seq. It is never held across a
	// blocking call: handlers look records up under mu, release it, then do
	// engine work (which may block on admission backpressure or the pool).
	mu      sync.Mutex
	tensors *tensorStore
	jobs    map[string]*jobRec
	streams map[string]*streamRec
	seq     uint64
}

// streamMeta is the sidecar persisted next to each stream checkpoint so a
// restarted server can echo the session's resolved Spec (the checkpoint
// itself carries the knobs in binary, but not in a form the service reads).
type streamMeta struct {
	Spec repro.Spec `json:"spec"`
}

// New builds a Server over cfg.Engine and, when cfg.StateDir is set, resumes
// every stream checkpointed there — each restored session is bit-identical
// to the one the previous process checkpointed, per Engine.ResumeStream. A
// checkpoint that fails to restore fails New: silently dropping a durable
// session would break the resume contract.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("service: Config.Engine is required")
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("service: MaxBodyBytes %d must be positive", cfg.MaxBodyBytes)
	}
	if cfg.MaxTensors == 0 {
		cfg.MaxTensors = DefaultMaxTensors
	}
	if cfg.MaxTensors < 0 {
		return nil, fmt.Errorf("service: MaxTensors %d must be positive", cfg.MaxTensors)
	}
	s := &Server{
		eng:      cfg.Engine,
		stats:    cfg.Stats,
		stateDir: cfg.StateDir,
		maxBody:  cfg.MaxBodyBytes,
		tensors:  newTensorStore(cfg.MaxTensors),
		jobs:     make(map[string]*jobRec),
		streams:  make(map[string]*streamRec),
	}
	if err := s.resumeStreams(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tensors", s.handleTensorUpload)
	mux.HandleFunc("GET /v1/tensors/{id}", s.handleTensorGet)
	mux.HandleFunc("POST /v1/decompose", s.handleDecompose)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamGet)
	mux.HandleFunc("POST /v1/streams/{id}/absorb", s.handleStreamAbsorb)
	mux.HandleFunc("POST /v1/streams/{id}/checkpoint", s.handleStreamCheckpoint)
	mux.HandleFunc("GET /v1/streams/{id}/result", s.handleStreamResult)
	s.mux = mux
}

// ServeHTTP caps the request body, then routes. The cap makes every decode
// path — JSON envelopes and binary tensor uploads alike — fail with 413
// instead of buffering an unbounded body.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(w, r)
}

// Close checkpoints every durable stream (sessions survive a clean shutdown
// exactly like a kill: the checkpoint after each absorb already covers the
// crash case, this covers state only reachable through an explicit save).
// The Engine is the caller's; Close does not touch it.
func (s *Server) Close() error {
	s.mu.Lock()
	recs := make([]*streamRec, 0, len(s.streams))
	for _, rec := range s.streams {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	var errs []error
	for _, rec := range recs {
		rec.sem <- struct{}{}
		if rec.st != nil && rec.ckptPath != "" {
			if err := s.eng.SaveStream(rec.ckptPath, rec.st); err != nil {
				errs = append(errs, fmt.Errorf("stream %s: %w", rec.id, err))
			}
		}
		<-rec.sem
	}
	return errors.Join(errs...)
}

// ----- durable sessions ------------------------------------------------------

func (s *Server) streamDir() string { return filepath.Join(s.stateDir, "streams") }

// streamPaths returns the absolute checkpoint and sidecar paths for a
// session id ("" paths when the server has no state dir). Absolute, so the
// Engine's own stateDir rooting never re-resolves them.
func (s *Server) streamPaths(id string) (ckpt, meta string, err error) {
	if s.stateDir == "" {
		return "", "", nil
	}
	dir, err := filepath.Abs(s.streamDir())
	if err != nil {
		return "", "", fmt.Errorf("service: resolve state dir: %w", err)
	}
	return filepath.Join(dir, id+".ckpt"), filepath.Join(dir, id+".json"), nil
}

// resumeStreams restores every checkpoint under the state dir at startup.
func (s *Server) resumeStreams() error {
	if s.stateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.streamDir(), 0o755); err != nil {
		return fmt.Errorf("service: create stream dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(s.streamDir(), "*.ckpt"))
	if err != nil {
		return fmt.Errorf("service: scan stream dir: %w", err)
	}
	for _, p := range paths {
		id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
		if !validStreamID(id) {
			return fmt.Errorf("service: checkpoint %q is not a valid stream id", p)
		}
		ckpt, metaPath, err := s.streamPaths(id)
		if err != nil {
			return err
		}
		st, err := s.eng.ResumeStream(context.Background(), ckpt)
		if err != nil {
			return fmt.Errorf("service: resume stream %s: %w", id, err)
		}
		var meta streamMeta
		if raw, err := os.ReadFile(metaPath); err == nil {
			// Sidecar is best-effort display metadata; a missing or corrupt
			// one leaves the Spec zero without affecting the session itself.
			_ = json.Unmarshal(raw, &meta)
		}
		s.streams[id] = newStreamRec(id, meta.Spec, st, true, ckpt)
	}
	return nil
}

// checkpointLocked persists st as the state of a session the caller holds
// the semaphore of. No-op on a memory-only server.
func (s *Server) checkpointLocked(rec *streamRec, st *repro.StreamingDPar2) error {
	if rec.ckptPath == "" {
		return nil
	}
	if err := s.eng.SaveStream(rec.ckptPath, st); err != nil {
		return fmt.Errorf("service: checkpoint stream %s: %w", rec.id, err)
	}
	return nil
}

// ----- error taxonomy --------------------------------------------------------

// apiError is a handler-originated error with its wire body attached.
type apiError struct{ body ErrorBody }

func (e *apiError) Error() string { return e.body.Message }

func apiErrf(code string, status int, format string, args ...any) *apiError {
	return &apiError{body: ErrorBody{Code: code, Status: status, Message: fmt.Sprintf(format, args...)}}
}

func errNotFound(kind, id string) *apiError {
	return apiErrf(CodeNotFound, http.StatusNotFound, "%s %q not found", kind, id)
}

// errBodyFor maps any error onto the wire taxonomy. Typed engine and codec
// errors take precedence; an unrecognized error is an opaque 500.
func errBodyFor(err error) ErrorBody {
	var ae *apiError
	var qe *repro.QuotaError
	var ce *dataio.CorruptError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		return ae.body
	case errors.As(err, &qe):
		return ErrorBody{Code: CodeQuotaExhausted, Status: http.StatusTooManyRequests,
			Message: err.Error(), Tenant: qe.Tenant}
	case errors.Is(err, repro.ErrEngineClosed):
		return ErrorBody{Code: CodeEngineClosed, Status: http.StatusServiceUnavailable, Message: err.Error()}
	case errors.As(err, &mbe):
		return ErrorBody{Code: CodeBodyTooLarge, Status: http.StatusRequestEntityTooLarge, Message: err.Error()}
	case errors.As(err, &ce):
		return ErrorBody{Code: CodeCorruptInput, Status: http.StatusBadRequest, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return ErrorBody{Code: CodeDeadlineExceeded, Status: http.StatusGatewayTimeout, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		// 499 is the de-facto "client closed request" status; the client is
		// usually gone, but poll views of a cancelled job also carry this.
		return ErrorBody{Code: CodeCanceled, Status: 499, Message: err.Error()}
	default:
		return ErrorBody{Code: CodeInternal, Status: http.StatusInternalServerError, Message: err.Error()}
	}
}

func writeError(w http.ResponseWriter, err error) {
	body := errBodyFor(err)
	if body.Status == http.StatusTooManyRequests || body.Status == http.StatusServiceUnavailable {
		// Quota windows clear as running jobs finish; "1" keeps a polite
		// client's retry loop tight without hammering.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, body.Status, ErrorResponse{Error: body})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON strictly decodes one JSON document from the request body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return apiErrf(CodeBadJSON, http.StatusBadRequest, "decode request: %v", err)
	}
	// Trailing garbage after the document is a malformed request, not data
	// to ignore.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return apiErrf(CodeBadJSON, http.StatusBadRequest, "request body has trailing data")
	}
	return nil
}

// ----- basics ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{}
	if s.stats != nil {
		snap := s.stats.SnapshotAll()
		resp.Engine = &snap
	}
	hits, misses := s.eng.CacheCounters()
	resp.Cache = CacheCounts{Hits: hits, Misses: misses}
	s.mu.Lock()
	resp.Tensors = s.tensors.len()
	for _, j := range s.jobs {
		switch j.status {
		case JobDone:
			resp.Jobs.Done++
		case JobFailed:
			resp.Jobs.Failed++
		default:
			resp.Jobs.Pending++
		}
	}
	resp.Streams = len(s.streams)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// ----- tensors ---------------------------------------------------------------

func (s *Server) handleTensorUpload(w http.ResponseWriter, r *http.Request) {
	t, err := dataio.ReadTensor(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, mbe)
			return
		}
		writeError(w, err) // *dataio.CorruptError → 400
		return
	}
	s.mu.Lock()
	info, err := s.tensors.put(t)
	s.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTensorGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.tensors.get(id)
	s.mu.Unlock()
	if !ok {
		writeError(w, errNotFound("tensor", id))
		return
	}
	writeJSON(w, http.StatusOK, st.info)
}

// lookupTensor resolves a request's tensor id.
func (s *Server) lookupTensor(id string) (*repro.Irregular, error) {
	if id == "" {
		return nil, apiErrf(CodeBadRequest, http.StatusBadRequest, "tensor_id is required")
	}
	s.mu.Lock()
	st, ok := s.tensors.get(id)
	s.mu.Unlock()
	if !ok {
		return nil, errNotFound("tensor", id)
	}
	return st.tensor, nil
}

// ----- decomposition ---------------------------------------------------------

// resolveRequest turns a DecomposeRequest into the tensor it names and the
// canonical Spec it resolves to — the same resolution an in-process
// Engine.Decompose would perform, done eagerly so invalid parameters are a
// 400 before any queueing.
func (s *Server) resolveRequest(tensorID string, sr SpecRequest) (*repro.Irregular, repro.Spec, error) {
	t, err := s.lookupTensor(tensorID)
	if err != nil {
		return nil, repro.Spec{}, err
	}
	spec, err := s.eng.ResolveSpec(sr.Options()...)
	if err != nil {
		if errors.Is(err, repro.ErrEngineClosed) {
			return nil, repro.Spec{}, err
		}
		return nil, repro.Spec{}, apiErrf(CodeBadRequest, http.StatusBadRequest, "invalid spec: %v", err)
	}
	return t, spec, nil
}

// encodeResult serializes a result to DPF2 bytes.
func encodeResult(res *repro.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		return nil, fmt.Errorf("service: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

// handleDecompose is the synchronous path: resolve, run through the Engine's
// admission-controlled queue (so tenant quotas and priorities govern HTTP
// traffic exactly like in-process Submit traffic), and reply with the
// factors. The request context bounds the whole job; TimeoutMillis tightens
// it.
func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	t, spec, err := s.resolveRequest(req.TensorID, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	jr := <-s.eng.Submit(ctx, repro.Job{
		Tensor:   t,
		Options:  []repro.Option{repro.WithSpec(spec)},
		Tenant:   req.Tenant,
		Priority: req.Priority,
	})
	if jr.Err != nil {
		writeError(w, jr.Err)
		return
	}
	raw, err := encodeResult(jr.Result)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DecomposeResponse{Spec: spec, Meta: metaOf(jr.Result), ResultDPF2: raw})
}

// ----- async jobs ------------------------------------------------------------

func (s *Server) nextID(prefix string) string {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("%s-%d", prefix, s.seq)
	s.mu.Unlock()
	return id
}

// finishJob records a job's outcome and releases its context.
func (s *Server) finishJob(rec *jobRec, jr repro.JobResult) {
	s.mu.Lock()
	if jr.Err != nil {
		rec.status = JobFailed
		body := errBodyFor(jr.Err)
		rec.errBody = &body
	} else if raw, err := encodeResult(jr.Result); err != nil {
		rec.status = JobFailed
		body := errBodyFor(err)
		rec.errBody = &body
	} else {
		rec.status = JobDone
		meta := metaOf(jr.Result)
		rec.meta = &meta
		rec.resultDPF2 = raw
	}
	s.mu.Unlock()
	rec.cancel()
}

// handleJobSubmit is the async path: the job runs on a background context
// (it must outlive the submitting request), a handle comes back immediately,
// and poll/result endpoints serve the outcome. An immediate rejection —
// quota, closed engine — is an HTTP error with no job record, so a client's
// retry loop sees 429 exactly like the synchronous path's.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	t, spec, err := s.resolveRequest(req.TensorID, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	var jobCtx context.Context
	var cancel context.CancelFunc
	if req.TimeoutMillis > 0 {
		jobCtx, cancel = context.WithTimeout(context.Background(), time.Duration(req.TimeoutMillis)*time.Millisecond)
	} else {
		jobCtx, cancel = context.WithCancel(context.Background())
	}
	ch := s.eng.Submit(jobCtx, repro.Job{
		Tensor:   t,
		Options:  []repro.Option{repro.WithSpec(spec)},
		Tenant:   req.Tenant,
		Priority: req.Priority,
	})

	rec := &jobRec{id: s.nextID("job"), tenant: req.Tenant, spec: spec, cancel: cancel, status: JobPending}

	// Submit delivers quota and closed-engine rejections into the buffered
	// channel before returning, so this select turns them into an immediate
	// HTTP error instead of a stillborn job handle.
	select {
	case jr := <-ch:
		if jr.Err != nil {
			cancel()
			writeError(w, jr.Err)
			return
		}
		s.finishJob(rec, jr)
	default:
		go func() {
			jr := <-ch
			s.finishJob(rec, jr)
		}()
	}

	s.mu.Lock()
	s.jobs[rec.id] = rec
	view := rec.statusView()
	s.mu.Unlock()
	status := http.StatusAccepted
	if view.Status != JobPending {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Server) lookupJob(id string) (*jobRec, error) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, errNotFound("job", id)
	}
	return rec, nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	view := rec.statusView()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleJobResult serves a finished job's factors as raw DPF2 bytes.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	rec, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	status, raw, errBody := rec.status, rec.resultDPF2, rec.errBody
	s.mu.Unlock()
	switch status {
	case JobDone:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
	case JobFailed:
		writeJSON(w, errBody.Status, ErrorResponse{Error: *errBody})
	default:
		writeError(w, apiErrf(CodeResultNotReady, http.StatusConflict, "job %s is still %s", rec.id, status))
	}
}

// handleJobDelete cancels a pending job (queued jobs release their tenant's
// quota without ever running) and forgets the record either way — the
// client-driven lifecycle that keeps the job table bounded.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec, ok := s.jobs[id]
	if ok {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, errNotFound("job", id))
		return
	}
	rec.cancel()
	w.WriteHeader(http.StatusNoContent)
}

// ----- streams ---------------------------------------------------------------

// isCtxErr reports whether err is ctx's own (non-nil) cancellation error —
// the cases that map to 499/504 rather than 400.
func isCtxErr(err error, ctx context.Context) bool {
	ce := ctx.Err()
	return ce != nil && errors.Is(err, ce)
}

// acquire takes a stream's semaphore, giving up if ctx dies first. The
// false return means the caller must not touch the session.
func acquire(ctx context.Context, rec *streamRec) bool {
	select {
	case rec.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func release(rec *streamRec) { <-rec.sem }

// handleStreamCreate opens a session. The record is published (with its
// semaphore held) before the initial decomposition runs, so a concurrent
// create on the same id conflicts instead of racing, and status/absorb
// requests for the new id queue behind the construction.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req StreamCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	t, spec, err := s.resolveRequest(req.TensorID, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	id := req.StreamID
	if id == "" {
		id = s.nextID("s")
	} else if !validStreamID(id) {
		writeError(w, apiErrf(CodeBadRequest, http.StatusBadRequest,
			"stream_id %q: need 1-64 chars of [A-Za-z0-9_-]", id))
		return
	}
	ckpt, metaPath, err := s.streamPaths(id)
	if err != nil {
		writeError(w, err)
		return
	}

	rec := newStreamRec(id, spec, nil, false, ckpt)
	rec.sem <- struct{}{} // construction in progress; absorb/status queue behind it
	s.mu.Lock()
	if _, exists := s.streams[id]; exists {
		s.mu.Unlock()
		writeError(w, apiErrf(CodeConflict, http.StatusConflict, "stream %q already exists", id))
		return
	}
	s.streams[id] = rec
	s.mu.Unlock()

	fail := func(err error) {
		s.mu.Lock()
		delete(s.streams, id)
		s.mu.Unlock()
		release(rec) // waiters see rec.st == nil and report not-found
		writeError(w, err)
	}

	st, err := s.eng.NewStream(r.Context(), t, repro.WithSpec(spec))
	if err != nil {
		if errors.Is(err, repro.ErrEngineClosed) || isCtxErr(err, r.Context()) {
			fail(err)
		} else {
			fail(apiErrf(CodeBadRequest, http.StatusBadRequest, "create stream: %v", err))
		}
		return
	}
	rec.st = st
	if metaPath != "" {
		err = state.WriteFileAtomic(metaPath, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(streamMeta{Spec: spec})
		})
		if err == nil {
			err = s.checkpointLocked(rec, st)
		}
		if err != nil {
			fail(err)
			return
		}
	}
	view := rec.infoView()
	release(rec)
	writeJSON(w, http.StatusCreated, view)
}

// lookupStream finds a session and acquires its semaphore. A record whose
// construction failed (or was deleted mid-wait) surfaces as not-found.
func (s *Server) lookupStream(ctx context.Context, id string) (*streamRec, error) {
	s.mu.Lock()
	rec, ok := s.streams[id]
	s.mu.Unlock()
	if !ok {
		return nil, errNotFound("stream", id)
	}
	if !acquire(ctx, rec) {
		return nil, ctx.Err()
	}
	if rec.st == nil {
		release(rec)
		return nil, errNotFound("stream", id)
	}
	return rec, nil
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.lookupStream(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	view := rec.infoView()
	release(rec)
	writeJSON(w, http.StatusOK, view)
}

// absorbSlices extracts the batch an absorb request carries: a JSON
// envelope naming an uploaded tensor, or raw DPT2 bytes inline.
func (s *Server) absorbSlices(r *http.Request) ([]*repro.Matrix, error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req AbsorbRequest
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		t, err := s.lookupTensor(req.TensorID)
		if err != nil {
			return nil, err
		}
		return t.Slices, nil
	}
	t, err := dataio.ReadTensor(r.Body)
	if err != nil {
		return nil, err // *dataio.CorruptError → 400, *http.MaxBytesError → 413
	}
	return t.Slices, nil
}

// handleStreamAbsorb feeds the session its next batch and checkpoints the
// advanced state before replying, so a 200 means the absorb is durable: a
// server killed at any point between absorbs restarts into exactly the
// state the last 200 acknowledged. The batch goes into a clone of the
// session, which replaces it only once its checkpoint has landed, so any
// error (a failed checkpoint, a cancel mid-refresh) leaves memory and disk
// at the last acknowledged state and a retry absorbs the batch once.
func (s *Server) handleStreamAbsorb(w http.ResponseWriter, r *http.Request) {
	slices, err := s.absorbSlices(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rec, err := s.lookupStream(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer release(rec)
	next := rec.st.Clone()
	if err := next.AbsorbCtx(r.Context(), slices); err != nil {
		if isCtxErr(err, r.Context()) {
			writeError(w, err)
		} else {
			writeError(w, apiErrf(CodeBadRequest, http.StatusBadRequest, "absorb: %v", err))
		}
		return
	}
	if err := s.checkpointLocked(rec, next); err != nil {
		writeError(w, err)
		return
	}
	rec.st = next
	rec.absorbs++
	writeJSON(w, http.StatusOK, rec.infoView())
}

func (s *Server) handleStreamCheckpoint(w http.ResponseWriter, r *http.Request) {
	rec, err := s.lookupStream(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer release(rec)
	if rec.ckptPath == "" {
		writeError(w, apiErrf(CodeBadRequest, http.StatusBadRequest,
			"server has no state dir; stream %s is memory-only", rec.id))
		return
	}
	if err := s.checkpointLocked(rec, rec.st); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec.infoView())
}

// handleStreamResult serves the session's current factors as DPF2 bytes.
func (s *Server) handleStreamResult(w http.ResponseWriter, r *http.Request) {
	rec, err := s.lookupStream(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	raw, err := encodeResult(rec.st.Result())
	release(rec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}
