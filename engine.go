package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/parafac2"
	"repro/internal/state"
)

// ErrEngineClosed is returned (or delivered as JobResult.Err) by every
// Engine method called after Close.
var ErrEngineClosed = errors.New("repro: engine is closed")

// ErrNonFinite is returned, wrapped with the iteration number, by any
// decomposition, stream create or absorb whose convergence measure turns
// NaN or ±Inf (non-finite input, or diverging factors); an absorbed batch
// holding a non-finite value is rejected with it before any work. No
// non-finite result is ever returned or cached.
var ErrNonFinite = parafac2.ErrNonFinite

// ErrQuotaExceeded is the sentinel every per-tenant quota rejection matches
// via errors.Is; the concrete error delivered on the Submit result channel
// is a *QuotaError carrying the tenant. See WithTenantQuota.
var ErrQuotaExceeded = admission.ErrQuotaExceeded

// QuotaError is the typed quota rejection: which tenant was over which
// MaxQueued limit. errors.Is(err, ErrQuotaExceeded) matches it.
type QuotaError = admission.QuotaError

// TenantQuota bounds one tenant's share of the Submit queue: at most
// MaxQueued jobs waiting and MaxRunning jobs executing at once. Configure
// with WithTenantQuota / WithTenantQuotaOverrides.
type TenantQuota = admission.Quota

// TenantStats is one tenant's row in an EngineStatsSnapshot.
type TenantStats = admission.TenantStats

// EngineStatsSnapshot is what Engine.Stats returns: every tenant's served
// traffic in deterministic sorted order plus the queue's high-water depth,
// under stable JSON field names — the /v1/stats wire schema of the HTTP
// front end (docs/SERVICE.md). String renders it as a served-traffic table.
type EngineStatsSnapshot = admission.StatsSnapshot

// Engine is the long-lived entry point for every decomposition in this
// package: it owns one shared compute pool (workers + warm scratch arenas)
// and runs any registered algorithm against it, either synchronously
// (Decompose) or through an admission-controlled job queue (Submit) that
// lets N tenants share the pool without starving each other.
//
//	eng := repro.NewEngine() // pool width = DefaultConfig().Threads
//	defer eng.Close()
//	res, err := eng.Decompose(ctx, tensor,
//		repro.WithMethod(repro.MethodDPar2), repro.WithRank(10))
//
// An Engine holds no decomposition knobs: every call resolves its own
// Options over DefaultSpec, so equal options select equal knobs on any
// Engine. What an Engine does hold is runtime: the pool (one width rule,
// WithEngineThreads or WithEnginePool), the Submit queue and its quotas,
// and the durable state.
//
// Every call accepts a context, checked between ALS iterations and between
// the parallel phases inside one, so jobs are cancellable and
// deadline-bounded; on cancellation the unwrapped ctx.Err() comes back.
// Results are deterministic for a given tensor and options, regardless of
// pool width, how many jobs run concurrently, or how priorities reorder the
// queue.
//
// An Engine is safe for concurrent use. Close stops the job workers, waits
// for accepted jobs to finish, and releases the pool (unless it was supplied
// with WithEnginePool, in which case the caller keeps ownership).
//
// Engine construction options validate eagerly: a zero or negative value
// where a positive one is required (queue depth, job concurrency, quota
// bounds) panics instead of silently falling back to the default — a
// caller's accidentally-computed 0 is a bug worth hearing about. Per-call
// Options, by contrast, return errors from the call they were passed to.
type Engine struct {
	pool    *compute.Pool
	ownPool bool

	// stateDir is the durable-state root (WithStateDir): relative
	// SaveStream/ResumeStream paths resolve under it and the result cache
	// lives in its "cache" subdirectory. Empty = no durable state.
	stateDir string
	// cache is the content-addressed result cache (WithResultCache), nil
	// when caching is off.
	cache *state.Cache

	// sched is the admission-controlled job queue: a bounded priority queue
	// (higher Job.Priority pops first, FIFO within a class) with per-tenant
	// quotas. It also keeps the per-tenant traffic stats Engine.Stats
	// reports. It replaces the plain FIFO channel of the original Submit
	// path.
	sched *admission.Queue[pendingJob]
	wg    sync.WaitGroup

	// mu guards closed for the synchronous entry points (Decompose,
	// Compress, ...). Submit no longer needs it: admission into sched is a
	// mutex-guarded state change inside the scheduler, not a channel send,
	// so the old in-flight-sender WaitGroup handshake (which existed only to
	// keep a blocked queue send from racing close(queue)) is gone — see
	// Close.
	mu     sync.RWMutex
	closed bool
}

// pendingJob is one admitted Submit request, carried as the scheduler
// ticket's payload.
type pendingJob struct {
	ctx context.Context
	job Job
	out chan JobResult
}

// engineSettings collects EngineOption state before the Engine is built.
type engineSettings struct {
	pool       *compute.Pool
	threads    int
	queueDepth int
	jobWorkers int

	quota     TenantQuota
	overrides map[string]TenantQuota

	stateDir   string
	cacheBytes int64
}

// EngineOption configures NewEngine.
type EngineOption func(*engineSettings)

// WithEngineThreads sizes the Engine's own pool from a thread count
// (default DefaultConfig().Threads, the paper's 6) under the repository's
// single clamping rule (n <= 0 means serial). Ignored when WithEnginePool is
// also given.
func WithEngineThreads(n int) EngineOption {
	return func(s *engineSettings) { s.threads = n }
}

// WithEnginePool hands the Engine an existing pool instead of building one.
// The caller keeps ownership: Close will not close it.
func WithEnginePool(p *Pool) EngineOption {
	return func(s *engineSettings) { s.pool = p }
}

// WithQueueDepth bounds the Submit queue (default 32). When the queue is
// full, in-quota Submits block until a worker frees a slot or the job's
// context is done — backpressure instead of unbounded buffering. n must be
// positive; a zero or negative depth panics (it would otherwise silently
// yield the default).
func WithQueueDepth(n int) EngineOption {
	return func(s *engineSettings) {
		if n <= 0 {
			panic(fmt.Sprintf("repro: WithQueueDepth(%d): depth must be positive", n))
		}
		s.queueDepth = n
	}
}

// WithJobConcurrency sets how many submitted jobs execute at once
// (default 4). All of them share the one pool: more concurrent jobs raise
// utilization when single jobs cannot saturate it, at the cost of per-job
// latency. n must be positive; a zero or negative count panics (it would
// otherwise silently yield the default).
func WithJobConcurrency(n int) EngineOption {
	return func(s *engineSettings) {
		if n <= 0 {
			panic(fmt.Sprintf("repro: WithJobConcurrency(%d): concurrency must be positive", n))
		}
		s.jobWorkers = n
	}
}

// WithTenantQuota bounds every tenant's share of the Submit queue: at most
// maxQueued jobs waiting and maxRunning jobs executing per tenant at once.
// A Submit that would exceed the tenant's queued quota fails immediately —
// the result channel delivers a *QuotaError matching ErrQuotaExceeded —
// without consuming a shared queue slot, so one noisy tenant cannot starve
// the rest; backpressure (blocking on a full queue) still applies to
// in-quota jobs. The running bound is enforced by the scheduler: a tenant at
// maxRunning has its queued jobs skipped (the workers stay busy with other
// tenants) until one of its jobs completes.
//
// Tenants are the Job.Tenant strings; the empty string is a valid tenant
// (the default bucket). Without this option no quota applies. Both bounds
// must be positive; zero or negative values panic — to leave a tenant
// unbounded, give it no quota (or an override large enough to never bind).
func WithTenantQuota(maxQueued, maxRunning int) EngineOption {
	return func(s *engineSettings) {
		if maxQueued <= 0 || maxRunning <= 0 {
			panic(fmt.Sprintf("repro: WithTenantQuota(%d, %d): quota bounds must be positive",
				maxQueued, maxRunning))
		}
		s.quota = TenantQuota{MaxQueued: maxQueued, MaxRunning: maxRunning}
	}
}

// WithTenantQuotaOverrides replaces the WithTenantQuota default for specific
// tenants (e.g. a larger share for a paying tenant, a tighter one for a
// batch pipeline). Every override's bounds must be positive; zero or
// negative values panic, as does a nil map.
func WithTenantQuotaOverrides(per map[string]TenantQuota) EngineOption {
	return func(s *engineSettings) {
		if per == nil {
			panic("repro: WithTenantQuotaOverrides(nil): override map must be non-nil")
		}
		// Copy: the scheduler reads the overrides on every admit/pop, so a
		// caller later mutating its own map must not race those reads.
		own := make(map[string]TenantQuota, len(per))
		for tenant, q := range per {
			if q.MaxQueued <= 0 || q.MaxRunning <= 0 {
				panic(fmt.Sprintf("repro: WithTenantQuotaOverrides: tenant %q quota (%d, %d): bounds must be positive",
					tenant, q.MaxQueued, q.MaxRunning))
			}
			own[tenant] = q
		}
		s.overrides = own
	}
}

// WithStateDir roots the Engine's durable state at dir: relative
// SaveStream/ResumeStream paths resolve under it, and WithResultCache stores
// its entries in its "cache" subdirectory. The directory is created if
// missing. dir must be non-empty; an empty dir panics (it would silently
// mean "no durable state").
func WithStateDir(dir string) EngineOption {
	return func(s *engineSettings) {
		if dir == "" {
			panic("repro: WithStateDir(\"\"): directory must be non-empty")
		}
		s.stateDir = dir
	}
}

// WithResultCache enables the content-addressed result cache: Decompose and
// Submit consult it before running a method and populate it after a
// successful run, keyed by a sha256 of the tensor's content plus every
// deterministic knob (method, rank, seed, iteration budget, sketch
// parameters — see docs/DURABILITY.md). Entries are persisted atomically
// under the WithStateDir root — which must also be configured, or NewEngine
// panics — and evicted least-recently-used beyond maxBytes of payload.
// maxBytes must be positive; zero or negative panics.
//
// Lookups with a Progress callback bypass the cache (its side effects must
// run). A cache hit restores the factors plus Iters/Fitness/FitnessKind/
// PreprocessedBytes; timings are zero, as in any deserialized result. A
// submitted job's hit stays in its entry's encoded form until
// JobResult.Result decodes it; JobResult.Encoded serves its bytes as read.
func WithResultCache(maxBytes int64) EngineOption {
	return func(s *engineSettings) {
		if maxBytes <= 0 {
			panic(fmt.Sprintf("repro: WithResultCache(%d): byte bound must be positive", maxBytes))
		}
		s.cacheBytes = maxBytes
	}
}

// NewEngine builds an Engine. With no options it owns a pool of width
// DefaultConfig().Threads (the paper's 6), a Submit queue of depth 32, 4
// concurrent job workers, and no tenant quotas. Every call resolves its
// knobs from DefaultSpec plus its own Options; the Engine holds none.
func NewEngine(opts ...EngineOption) *Engine {
	s := engineSettings{
		threads:    DefaultConfig().Threads,
		queueDepth: 32,
		jobWorkers: 4,
	}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}

	e := &Engine{pool: s.pool, stateDir: s.stateDir}
	if s.stateDir != "" {
		if err := os.MkdirAll(s.stateDir, 0o755); err != nil {
			panic(fmt.Sprintf("repro: WithStateDir(%q): %v", s.stateDir, err))
		}
		// A SaveStream interrupted by a crash leaves a hidden ".<name>.tmp-*"
		// orphan next to its target; sweep them so the state root does not
		// accumulate dead temps across restarts.
		if err := state.RemoveStaleTemps(s.stateDir); err != nil {
			panic(fmt.Sprintf("repro: WithStateDir(%q): sweep stale temps: %v", s.stateDir, err))
		}
	}
	if s.cacheBytes > 0 {
		if s.stateDir == "" {
			panic("repro: WithResultCache requires WithStateDir")
		}
		cache, err := state.OpenCache(filepath.Join(s.stateDir, "cache"), s.cacheBytes)
		if err != nil {
			panic(fmt.Sprintf("repro: WithResultCache: %v", err))
		}
		e.cache = cache
	}
	if e.pool == nil {
		e.pool = compute.NewPool(s.threads)
		e.ownPool = true
	}

	e.sched = admission.New[pendingJob](admission.Config{
		Capacity:     s.queueDepth,
		DefaultQuota: s.quota,
		Overrides:    s.overrides,
	})
	e.wg.Add(s.jobWorkers)
	for i := 0; i < s.jobWorkers; i++ {
		go e.jobWorker()
	}
	return e
}

// Stats reports the traffic the Engine has served since it was built, per
// tenant: Submit admissions, rejections, starts, completions, failures and
// cancellations with their queue-wait and run latencies, and result-cache
// hits and misses (a synchronous Decompose counts under the default tenant
// ""). The snapshot is consistent: the queue updates it in the same critical
// section as each job transition.
func (e *Engine) Stats() EngineStatsSnapshot { return e.sched.Stats() }

// Pool exposes the Engine's shared pool (e.g. to share it with further
// Engines through WithEnginePool, or for direct Config users). The Engine
// retains ownership unless the pool came from WithEnginePool; after Close an
// Engine-owned pool runs submitted work inline on the caller (serial).
func (e *Engine) Pool() *Pool { return e.pool }

// StateDir returns the durable-state root given to WithStateDir, or "" when
// the Engine keeps no durable state.
func (e *Engine) StateDir() string { return e.stateDir }

// Close stops accepting work, waits for already-accepted jobs to finish
// (they still produce results), and closes the Engine-owned pool. Close is
// idempotent; calls after the first wait for the same drain.
func (e *Engine) Close() {
	e.mu.Lock()
	first := !e.closed
	e.closed = true
	e.mu.Unlock()
	if first {
		// Closing the scheduler atomically (a) fails every Submit that has
		// not yet been admitted — including ones blocked on backpressure,
		// which wake and deliver ErrEngineClosed — and (b) keeps Pop serving
		// the already-admitted backlog. No handshake with in-flight senders
		// is needed anymore: admission is a mutex-guarded state change
		// inside the scheduler, so nothing can race "the queue closing" the
		// way a blocking channel send could race close(chan).
		e.sched.Close()
	}
	// Each worker exits once Pop reports closed-and-drained, so this wait
	// observes every accepted job's completion.
	e.wg.Wait()
	if first && e.ownPool {
		e.pool.Close()
	}
}

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// prepare is the shared preamble of every Engine call: reject a closed
// engine, default a nil ctx, resolve the per-call options (see resolve),
// and materialize the Config the call runs: the resolved knobs and
// Progress callback, pinned to the shared pool. Callers that cannot run all
// methods pass dpar2Only.
func (e *Engine) prepare(ctx context.Context, opts []Option, dpar2Only bool, op string) (context.Context, parafac2.Method, Config, error) {
	if e.isClosed() {
		return ctx, nil, Config{}, ErrEngineClosed
	}
	return e.prepareOpen(ctx, opts, dpar2Only, op)
}

// prepareOpen is prepare without the closed check — the path jobs drained
// after Close take (they were accepted before Close and must still run).
func (e *Engine) prepareOpen(ctx context.Context, opts []Option, dpar2Only bool, op string) (context.Context, parafac2.Method, Config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, js, err := resolve(opts)
	if err != nil {
		return ctx, nil, Config{}, err
	}
	if dpar2Only && m.Name() != string(MethodDPar2) {
		return ctx, nil, Config{}, fmt.Errorf("repro: %s supports only %s, got %s", op, MethodDPar2, m.Name())
	}
	cfg := js.spec.config(js.progress)
	cfg.Pool = e.pool
	return ctx, m, cfg, nil
}

// resolve applies per-call options in order over DefaultSpec into a
// jobSpec, looks the method up (canonicalizing its name) and checks every
// knob, so an invalid request fails here, before any work starts.
func resolve(opts []Option) (parafac2.Method, jobSpec, error) {
	js := jobSpec{spec: DefaultSpec()}
	for _, o := range opts {
		if o != nil {
			o(&js)
		}
	}
	m, err := parafac2.MustLookup(string(js.spec.Method))
	if err != nil {
		return nil, jobSpec{}, err
	}
	js.spec.Method = MethodID(m.Name())
	if err := js.spec.config(nil).CheckKnobs(); err != nil {
		return nil, jobSpec{}, err
	}
	return m, js, nil
}

// Decompose runs one decomposition synchronously on the shared pool: opts
// over DefaultSpec select the algorithm (default MethodDPar2) and its
// parameters. It is the single entry point every algorithm runs through,
// dispatched by name via the method registry. A result-cache hit comes back
// decoded.
func (e *Engine) Decompose(ctx context.Context, t *Irregular, opts ...Option) (*Result, error) {
	if e.isClosed() {
		return nil, ErrEngineClosed
	}
	return e.decompose(ctx, Job{Tensor: t, Options: opts}).Result()
}

// decompose runs one Job's decomposition synchronously: Decompose without
// the closed check — the path drained jobs take after Close has begun.
// prepare would re-reject those, so its closed check is skipped by
// construction: a drained job was accepted before Close. The job's Tenant
// attributes cache hits and misses in the Engine's stats (Decompose passes
// the default bucket), and its Digest, when set, spares the cache key a
// hash of the tensor.
//
// The success comes back in the form it was produced: a cache hit as the
// entry's EncodedResult, never decoded here; a cacheable miss as the
// computed Result plus the EncodedResult it was encoded to, once, for the
// store; an uncached run as the computed Result alone, never encoded.
func (e *Engine) decompose(ctx context.Context, job Job) JobResult {
	t := job.Tensor
	if t == nil {
		return JobResult{Tag: job.Tag, Err: errors.New("repro: Decompose with nil tensor")}
	}
	ctx, m, cfg, err := e.prepareOpen(ctx, job.Options, false, "Decompose")
	if err != nil {
		return JobResult{Tag: job.Tag, Err: err}
	}
	key, cacheable := e.resultCacheKey(m, t, cfg, job.Digest)
	if cacheable {
		enc, hit := e.cacheLookup(key)
		e.sched.NoteCache(job.Tenant, hit)
		if hit {
			return JobResult{Tag: job.Tag, enc: enc}
		}
	}
	res, err := m.Decompose(ctx, t, cfg)
	if err != nil {
		return JobResult{Tag: job.Tag, Err: err}
	}
	jr := JobResult{Tag: job.Tag, res: res}
	if cacheable {
		// Best-effort, like the store: a failed encode leaves the result
		// uncached, and Encoded reports the error if it is asked for.
		if enc, err := encodeResult(res); err == nil {
			e.cacheStore(key, enc)
			jr.enc = enc
		}
	}
	return jr
}

// Compress runs only the two-stage compression on the shared pool, for
// callers that amortize preprocessing across several DecomposeCompressed
// runs (rank sweeps, hyperparameter exploration).
func (e *Engine) Compress(ctx context.Context, t *Irregular, opts ...Option) (*Compressed, error) {
	if t == nil {
		return nil, errors.New("repro: Compress with nil tensor")
	}
	ctx, _, cfg, err := e.prepare(ctx, opts, true, "Compress")
	if err != nil {
		return nil, err
	}
	return parafac2.CompressCtx(ctx, t, cfg)
}

// DecomposeCompressed runs DPar2's iteration phase on a previously
// compressed tensor (only DPar2 iterates on the compressed form; any other
// WithMethod is an error). Result.Fitness is the compressed-space estimate
// 1 − e/‖X̃‖² (Result.FitnessKind == FitnessCompressed): exact against the
// compressed approximation X̃ the iteration sees, off from the fitness
// against the original tensor only by the one-time compression error. Use
// Engine.Fitness for the true value when the tensor is at hand.
func (e *Engine) DecomposeCompressed(ctx context.Context, c *Compressed, opts ...Option) (*Result, error) {
	if c == nil {
		return nil, errors.New("repro: DecomposeCompressed with nil Compressed")
	}
	ctx, _, cfg, err := e.prepare(ctx, opts, true, "DecomposeCompressed")
	if err != nil {
		return nil, err
	}
	return parafac2.DPar2FromCompressedCtx(ctx, c, cfg)
}

// NewStream starts a streaming DPar2 decomposition on the shared pool (only
// DPar2 streams; any other WithMethod is an error): the initial batch is
// compressed and decomposed now; later AbsorbCtx calls warm-start from the
// previous factors. The stream keeps using the Engine's pool — close the
// Engine only after the stream is done (absorbs on a closed engine still
// work, just serially).
func (e *Engine) NewStream(ctx context.Context, initial *Irregular, opts ...Option) (*StreamingDPar2, error) {
	if initial == nil {
		return nil, errors.New("repro: NewStream with nil tensor")
	}
	ctx, _, cfg, err := e.prepare(ctx, opts, true, "NewStream")
	if err != nil {
		return nil, err
	}
	return parafac2.NewStreamingDPar2Ctx(ctx, initial, cfg)
}

// Fitness evaluates a result against a tensor on the Engine's pool. The value
// is always the FitnessTrue quantity — use it to tell the true fit from the
// compressed-space estimate a streaming refresh or DecomposeCompressed left
// in Result.Fitness (Result.FitnessKind distinguishes the two). Factored
// results are evaluated without materializing any dense Q_k.
//
// Fitness stays usable after Close: like stream absorbs on a closed engine,
// post-Close evaluation runs serially, because a closed compute.Pool runs
// submitted work inline on the caller. The per-slice errors are summed in
// slice order either way, so the value does not change.
func (e *Engine) Fitness(t *Irregular, r *Result) float64 {
	return parafac2.FitnessWith(t, r, e.pool)
}

// ----- The batched job service ---------------------------------------------

// Job is one queued decomposition request: a tensor plus the per-job options
// (method, rank, seed, ...) that Decompose would take. Tag is an opaque
// caller identifier echoed in the JobResult.
type Job struct {
	Tensor  *Irregular
	Options []Option
	Tag     string

	// Tenant names the quota bucket this job counts against (see
	// WithTenantQuota). Tenants are opaque strings; the empty string is a
	// valid tenant — the default bucket every untagged job shares.
	Tenant string

	// Priority orders queued jobs: a higher value runs earlier, ties run in
	// submission order (FIFO within a priority class). The default 0 is a
	// valid class; negative priorities run after it. Priority reorders only
	// WHEN a job runs, never what it computes — results are bit-identical
	// for a fixed tensor and options at any priority and any queue state.
	Priority int

	// Digest, when non-nil, is Tensor's DigestTensor value from a caller
	// that already holds it (internal/service computes it once, at upload):
	// the result-cache key reads it instead of hashing Tensor again. It is
	// trusted, never checked, so a digest from another tensor makes the
	// cache answer for that tensor. Nil hashes Tensor, as Decompose does on
	// every cacheable call.
	Digest *TensorDigest
}

// JobResult is the outcome of one submitted Job: Err, or a success held in
// the form the Engine produced it, which Result and Encoded convert only
// when called. Err is one of: the job context's error (ctx.Err(), if
// cancelled while queued or mid-run), ErrEngineClosed (submitted after
// Close), a *QuotaError matching ErrQuotaExceeded (the tenant was over its
// queued quota), or the decomposition's own error.
type JobResult struct {
	Tag string
	Err error

	res *Result       // the computed result; nil on a cache hit
	enc EncodedResult // the cache record (hit or cacheable miss); DPF2 nil otherwise
}

// Result returns the job's result, or Err: a computed result as is, a
// result-cache hit decoded from its bytes (each call decodes anew).
func (jr JobResult) Result() (*Result, error) {
	switch {
	case jr.Err != nil:
		return nil, jr.Err
	case jr.res != nil:
		return jr.res, nil
	}
	return jr.enc.decode()
}

// Encoded returns the job's result as the result cache stores it, or Err: a
// hit's entry bytes verbatim, a cacheable miss's stored bytes, or, for a
// result the cache did not see, an encoding made on the call. Bytes it
// returns are shared, not copied: do not modify them.
func (jr JobResult) Encoded() (EncodedResult, error) {
	switch {
	case jr.Err != nil:
		return EncodedResult{}, jr.Err
	case jr.enc.DPF2 != nil:
		return jr.enc, nil
	}
	return encodeResult(jr.res)
}

// Submit runs a Job through the admission-controlled queue and returns a
// 1-buffered channel that receives exactly one JobResult — the multi-tenant
// service path: N tenants submit against one Engine, the job workers drain
// the queue in (Priority, FIFO) order onto the shared pool, and per-tenant
// quotas keep any one tenant from starving the rest.
//
// Admission is immediate for over-quota tenants (a *QuotaError matching
// ErrQuotaExceeded on the channel, no queue slot consumed) and blocking only
// while the queue is full (backpressure for in-quota jobs). ctx applies to
// the whole job lifetime — waiting for a queue slot, waiting for a worker,
// and the decomposition itself; a ctx cancelled anywhere along that path
// delivers ctx.Err() on the returned channel, and a job cancelled while
// still queued releases its tenant's quota without ever occupying a worker.
func (e *Engine) Submit(ctx context.Context, job Job) <-chan JobResult {
	out := make(chan JobResult, 1)
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := e.sched.Admit(ctx, job.Tenant, job.Priority, pendingJob{ctx: ctx, job: job, out: out},
		func(err error) {
			// Cancelled while queued: the scheduler already released the
			// tenant's quota and guarantees no worker will see the ticket.
			out <- JobResult{Tag: job.Tag, Err: err}
		})
	if err != nil {
		if errors.Is(err, admission.ErrClosed) {
			err = ErrEngineClosed
		}
		out <- JobResult{Tag: job.Tag, Err: err}
	}
	return out
}

// jobWorker drains the scheduler until Close drains it; accepted jobs always
// deliver a result, even when popped after Close began. The ticket is
// Finished (releasing the tenant's running quota) before the result is
// delivered, so a caller that receives a result can immediately resubmit
// without tripping its own quota.
func (e *Engine) jobWorker() {
	defer e.wg.Done()
	for {
		tk, ok := e.sched.Pop()
		if !ok {
			return
		}
		jr := e.runJob(tk.Payload)
		tk.Finish(jr.Err)
		tk.Payload.out <- jr
	}
}

func (e *Engine) runJob(pj pendingJob) JobResult {
	if err := pj.ctx.Err(); err != nil {
		return JobResult{Tag: pj.job.Tag, Err: err}
	}
	return e.decompose(pj.ctx, pj.job)
}
