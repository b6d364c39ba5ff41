package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/parafac2"
)

func engineTestTensor(seed uint64) *Irregular {
	g := NewRNG(seed)
	return LowRankTensor(g, []int{60, 80, 50, 70}, 24, 4, 0.02)
}

func engineTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Rank = 4
	cfg.MaxIters = 8
	cfg.Threads = 2
	return cfg
}

// withConfig is the option that runs a call under cfg's deterministic
// knobs: the Engine tests pass it first, before each call's own options.
func withConfig(cfg Config) Option { return WithSpec(specFromConfig(MethodDPar2, cfg)) }

// TestEngineDecomposeMatchesFreeFunctions: all four algorithms run through
// Engine.Decompose via the registry, bit-identical to calling each
// algorithm's function directly (which also satisfies the < 1e-9
// fitness-drift requirement).
func TestEngineDecomposeMatchesFreeFunctions(t *testing.T) {
	ten := engineTestTensor(1)
	cfg := engineTestConfig()

	eng := NewEngine(WithEngineThreads(3))
	defer eng.Close()
	ctx := context.Background()

	free := map[MethodID]func(context.Context, *Irregular, Config) (*Result, error){
		MethodDPar2:   parafac2.DPar2Ctx,
		MethodRDALS:   parafac2.RDALSCtx,
		MethodALS:     parafac2.ALSCtx,
		MethodSPARTan: parafac2.SPARTanCtx,
	}
	for id, fn := range free {
		want, err := fn(ctx, ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Decompose(ctx, ten, withConfig(cfg), WithMethod(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.Fitness != want.Fitness {
			t.Fatalf("%s: engine fitness %v != free function %v (drift %g)",
				id, got.Fitness, want.Fitness, math.Abs(got.Fitness-want.Fitness))
		}
		if !got.H.EqualApprox(want.H, 0) || !got.V.EqualApprox(want.V, 0) {
			t.Fatalf("%s: engine factors differ from free function", id)
		}
	}
}

// TestEngineWidthRule: the Engine's pool width has one rule. It starts at
// DefaultConfig().Threads (the paper's 6); WithEngineThreads sets it under
// compute.NewPool's clamping (n <= 0 is serial); WithEnginePool supplies
// the pool itself, whatever thread count is also given.
func TestEngineWidthRule(t *testing.T) {
	shared := NewEngine(WithEngineThreads(3))
	defer shared.Close()
	p := shared.Pool()
	for _, c := range []struct {
		name  string
		opts  []EngineOption
		width int
		pool  *Pool
	}{
		{name: "default", width: 6},
		{name: "threads 2", opts: []EngineOption{WithEngineThreads(2)}, width: 2},
		{name: "threads 0", opts: []EngineOption{WithEngineThreads(0)}, width: 1},
		{name: "pool", opts: []EngineOption{WithEnginePool(p)}, width: 3, pool: p},
		{name: "pool over threads", opts: []EngineOption{WithEngineThreads(2), WithEnginePool(p)}, width: 3, pool: p},
	} {
		eng := NewEngine(c.opts...)
		if got := eng.Pool().Workers(); got != c.width {
			t.Errorf("%s: width %d, want %d", c.name, got, c.width)
		}
		if c.pool != nil && eng.Pool() != c.pool {
			t.Errorf("%s: the Engine built its own pool instead of using the supplied one", c.name)
		}
		eng.Close()
	}
}

// TestEngineSubmitConcurrentBitIdentical: >= 8 concurrent jobs (mixed
// methods and seeds) on one shared pool produce exactly the results of
// serial runs with the same options.
func TestEngineSubmitConcurrentBitIdentical(t *testing.T) {
	cfg := engineTestConfig()
	eng := NewEngine(WithEngineThreads(4), WithJobConcurrency(6))
	defer eng.Close()
	ctx := context.Background()

	methods := []MethodID{MethodDPar2, MethodALS, MethodRDALS, MethodSPARTan}
	const jobs = 12
	type caseSpec struct {
		ten    *Irregular
		method MethodID
		seed   uint64
	}
	cases := make([]caseSpec, jobs)
	baselines := make([]*Result, jobs)
	for i := range cases {
		cases[i] = caseSpec{
			ten:    engineTestTensor(uint64(i % 3)), // some jobs share a tensor
			method: methods[i%len(methods)],
			seed:   uint64(1 + i),
		}
		serialCfg := cfg
		serialCfg.Seed = cases[i].seed
		serialCfg.Threads = 1
		var err error
		switch cases[i].method {
		case MethodDPar2:
			baselines[i], err = parafac2.DPar2Ctx(ctx, cases[i].ten, serialCfg)
		case MethodALS:
			baselines[i], err = parafac2.ALSCtx(ctx, cases[i].ten, serialCfg)
		case MethodRDALS:
			baselines[i], err = parafac2.RDALSCtx(ctx, cases[i].ten, serialCfg)
		case MethodSPARTan:
			baselines[i], err = parafac2.SPARTanCtx(ctx, cases[i].ten, serialCfg)
		}
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
	}

	pending := make([]<-chan JobResult, jobs)
	for i, c := range cases {
		pending[i] = eng.Submit(ctx, Job{
			Tensor: c.ten,
			Tag:    fmt.Sprint(i),
			Options: []Option{
				withConfig(cfg), WithMethod(c.method), WithSeed(c.seed),
			},
		})
	}
	for i, ch := range pending {
		jr := <-ch
		res, err := jr.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if jr.Tag != fmt.Sprint(i) {
			t.Fatalf("job %d: tag %q echoed wrong", i, jr.Tag)
		}
		if res.Fitness != baselines[i].Fitness {
			t.Fatalf("job %d (%s): concurrent fitness %v != serial %v",
				i, cases[i].method, res.Fitness, baselines[i].Fitness)
		}
		if !res.H.EqualApprox(baselines[i].H, 0) || !res.V.EqualApprox(baselines[i].V, 0) {
			t.Fatalf("job %d (%s): concurrent factors differ from serial run", i, cases[i].method)
		}
	}
}

// TestEngineSubmitCancelledWhileQueued: a job whose context dies before a
// worker picks it up delivers ctx.Err() instead of running.
func TestEngineSubmitCancelledWhileQueued(t *testing.T) {
	cfg := engineTestConfig()
	cfg.MaxIters = 200
	cfg.Tol = 0
	// One worker, so the second job has to wait in the queue.
	eng := NewEngine(WithEngineThreads(1), WithJobConcurrency(1))
	defer eng.Close()
	knobs := []Option{withConfig(cfg)}

	big := engineTestTensor(5)
	first := eng.Submit(context.Background(), Job{Tensor: big, Tag: "long", Options: knobs})

	ctx, cancel := context.WithCancel(context.Background())
	queued := eng.Submit(ctx, Job{Tensor: engineTestTensor(6), Tag: "queued", Options: knobs})
	cancel()

	jr := <-queued
	if !errors.Is(jr.Err, context.Canceled) {
		t.Fatalf("queued job err = %v, want context.Canceled", jr.Err)
	}
	if jr := <-first; jr.Err != nil {
		t.Fatalf("long job: %v", jr.Err)
	}
}

// TestEngineSubmitCancelledMidRun: cancelling a running job's context stops
// the decomposition between iterations and delivers ctx.Err().
func TestEngineSubmitCancelledMidRun(t *testing.T) {
	cfg := engineTestConfig()
	cfg.MaxIters = 10000
	cfg.Tol = 0
	eng := NewEngine(WithEngineThreads(2))
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once bool
	ch := eng.Submit(ctx, Job{
		Tensor: engineTestTensor(7),
		Tag:    "cancel-me",
		Options: []Option{withConfig(cfg), WithProgress(func(iter int, _ float64) bool {
			if !once {
				once = true
				close(started)
			}
			return true
		})},
	})
	<-started
	cancel()
	select {
	case jr := <-ch:
		if !errors.Is(jr.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", jr.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not return within 10s")
	}
}

// TestEngineCloseSemantics: accepted jobs finish, later calls fail with
// ErrEngineClosed, and Close is idempotent.
func TestEngineCloseSemantics(t *testing.T) {
	knobs := []Option{withConfig(engineTestConfig())}
	eng := NewEngine(WithEngineThreads(2))
	ctx := context.Background()
	ten := engineTestTensor(8)

	accepted := eng.Submit(ctx, Job{Tensor: ten, Tag: "accepted", Options: knobs})
	eng.Close()
	eng.Close() // idempotent

	if jr := <-accepted; jr.Err != nil {
		t.Fatalf("job accepted before Close must finish, got %v", jr.Err)
	}
	if jr := <-eng.Submit(ctx, Job{Tensor: ten, Options: knobs}); !errors.Is(jr.Err, ErrEngineClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrEngineClosed", jr.Err)
	}
	if _, err := eng.Decompose(ctx, ten, knobs...); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Decompose after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Compress(ctx, ten, knobs...); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Compress after Close: err = %v, want ErrEngineClosed", err)
	}
}

// TestEngineOptionValidation: invalid options surface as errors before any
// work, with the offending value named.
func TestEngineOptionValidation(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(9)

	if _, err := eng.Decompose(ctx, ten, WithMethod("definitely-not-registered")); err == nil {
		t.Fatal("unknown method must error")
	}
	if _, err := eng.Decompose(ctx, ten, WithRank(0)); err == nil {
		t.Fatal("WithRank(0) must error")
	}
	if _, err := eng.Decompose(ctx, ten, WithMaxIters(-1)); err == nil {
		t.Fatal("WithMaxIters(-1) must error")
	}
	if _, err := eng.Decompose(ctx, ten, WithTolerance(-0.1)); err == nil {
		t.Fatal("WithTolerance(-0.1) must error")
	}
	if _, err := eng.Decompose(ctx, nil); err == nil {
		t.Fatal("nil tensor must error")
	}
	// Aliases resolve through the registry like the CLI flag always did.
	if _, err := eng.Decompose(ctx, ten, WithMethod("parafac2-als"), WithRank(4)); err != nil {
		t.Fatalf("alias method: %v", err)
	}
}

// TestEngineNewStream: streaming runs on the engine pool end to end.
func TestEngineNewStream(t *testing.T) {
	g := NewRNG(11)
	full := LowRankTensor(g, []int{50, 60, 45, 55, 65, 40}, 18, 3, 0.02)
	first, err := NewIrregular(full.Slices[:3])
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(WithEngineThreads(2))
	defer eng.Close()
	ctx := context.Background()
	stream, err := eng.NewStream(ctx, first, WithRank(3), WithMaxIters(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.AbsorbCtx(ctx, full.Slices[3:]); err != nil {
		t.Fatal(err)
	}
	if fit := eng.Fitness(full, stream.Result()); fit < 0.9 {
		t.Fatalf("streamed fitness %v", fit)
	}
}

// TestEngineCloseReleasesWorkers: an engine lifecycle (including cancelled
// work) leaves no goroutines behind.
func TestEngineCloseReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		eng := NewEngine(WithEngineThreads(4), WithJobConcurrency(3))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		<-eng.Submit(ctx, Job{Tensor: engineTestTensor(12)})
		if _, err := eng.Decompose(context.Background(), engineTestTensor(13),
			WithRank(3), WithMaxIters(2)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d >> baseline %d after engine Close (leak)",
		runtime.NumGoroutine(), before)
}

// TestEngineDPar2OnlyEndpoints: Compress/DecomposeCompressed/NewStream
// accept MethodDPar2 in any registered spelling and reject other methods
// loudly instead of silently running DPar2.
func TestEngineDPar2OnlyEndpoints(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(14)

	comp, err := eng.Compress(ctx, ten, WithMethod("DPar2"), WithRank(4)) // case variant
	if err != nil {
		t.Fatalf("Compress with case-variant method name: %v", err)
	}
	if _, err := eng.DecomposeCompressed(ctx, comp, WithMethod("DPAR2"), WithRank(4)); err != nil {
		t.Fatalf("DecomposeCompressed with case-variant method name: %v", err)
	}
	if _, err := eng.DecomposeCompressed(ctx, comp, WithMethod(MethodALS)); err == nil {
		t.Fatal("DecomposeCompressed must reject non-DPar2 methods")
	}
	if _, err := eng.NewStream(ctx, ten, WithMethod(MethodSPARTan)); err == nil {
		t.Fatal("NewStream must reject non-DPar2 methods")
	}
	if _, err := eng.Compress(ctx, ten, WithMethod(MethodRDALS)); err == nil {
		t.Fatal("Compress must reject non-DPar2 methods")
	}
}

// TestDecomposeCompressedRankMismatchIsError: a Compressed built at one rank
// decomposed at another (DefaultSpec's rank, or an explicit WithRank) is an
// error naming both ranks, not a panic inside the iteration.
func TestDecomposeCompressedRankMismatchIsError(t *testing.T) {
	eng := NewEngine(WithEngineThreads(1))
	defer eng.Close()
	ctx := context.Background()
	comp, err := eng.Compress(ctx, engineTestTensor(14), WithRank(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts []Option
		rank int
	}{{nil, DefaultSpec().Rank}, {[]Option{WithRank(2)}, 2}} {
		res, err := eng.DecomposeCompressed(ctx, comp, c.opts...)
		if err == nil || res != nil {
			t.Fatalf("rank %d on a rank-4 Compressed: result %v, err %v", c.rank, res, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("rank %d ", c.rank)) || !strings.Contains(msg, "rank 4") {
			t.Fatalf("rank %d on a rank-4 Compressed: error %q does not name both ranks", c.rank, msg)
		}
	}
}

// TestEngineSubmitFullQueueDoesNotBlockOtherCalls is the regression test for
// the Submit/Close lock interaction: a Submit blocked on a full queue used to
// hold mu.RLock across the send, so once Close was waiting on the write lock
// (RWMutex writer priority) every other Engine call stalled behind it. Now a
// blocked Submit holds no lock, Close proceeds, and concurrent calls observe
// ErrEngineClosed promptly instead of deadlocking.
func TestEngineSubmitFullQueueDoesNotBlockOtherCalls(t *testing.T) {
	ten := engineTestTensor(7)
	knobs := withConfig(engineTestConfig())
	eng := NewEngine(WithEngineThreads(1), WithQueueDepth(1), WithJobConcurrency(1))

	// Job A occupies the single worker until released.
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hold := WithProgress(func(int, float64) bool {
		once.Do(func() { close(running) })
		<-release
		return true
	})
	chA := eng.Submit(context.Background(), Job{Tensor: ten, Tag: "A", Options: []Option{knobs, hold}})
	<-running

	// Job B fills the queue's only slot; job C blocks in the queue send.
	chB := eng.Submit(context.Background(), Job{Tensor: ten, Tag: "B", Options: []Option{knobs}})
	chC := make(chan (<-chan JobResult), 1)
	go func() { chC <- eng.Submit(context.Background(), Job{Tensor: ten, Tag: "C", Options: []Option{knobs}}) }()
	time.Sleep(50 * time.Millisecond) // let C reach the blocking send

	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()

	// While C is still blocked and Close is waiting, other Engine calls must
	// resolve promptly (ErrEngineClosed once Close has flipped the flag).
	decided := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := eng.Decompose(context.Background(), ten, knobs)
			if errors.Is(err, ErrEngineClosed) {
				decided <- nil
				return
			}
			if time.Now().After(deadline) {
				decided <- fmt.Errorf("Decompose never observed the closing engine (last err: %v)", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case err := <-decided:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Decompose deadlocked behind a Submit blocked on a full queue")
	}

	// Unblock everything: accepted jobs must still deliver results and
	// Close must return.
	close(release)
	for _, c := range []struct {
		tag string
		ch  <-chan JobResult
	}{{"A", chA}, {"B", chB}, {"C", <-chC}} {
		jr := <-c.ch
		// A and B were accepted before Close and must succeed; C raced
		// Close and may legitimately see either outcome.
		if c.tag != "C" && jr.Err != nil {
			t.Fatalf("job %s: %v", c.tag, jr.Err)
		}
		if jr.Err != nil && !errors.Is(jr.Err, ErrEngineClosed) {
			t.Fatalf("job %s: unexpected error %v", c.tag, jr.Err)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after jobs drained")
	}
}

// ----- Admission control: tenants, priorities, quotas, stats ----------------

// gateJob returns a Progress callback whose job blocks the worker it runs on
// until release is closed, plus a channel closed once the job has started.
func gateJob() (hold func(int, float64) bool, running chan struct{}, release chan struct{}) {
	running = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	hold = func(int, float64) bool {
		once.Do(func() { close(running) })
		<-release
		return true
	}
	return hold, running, release
}

// startRecorder records the tenant of every job it is attached to on that
// job's first iteration; with one job worker, that is the pop order.
type startRecorder struct {
	mu     sync.Mutex
	starts []string
}

// option is a WithProgress option that records tenant on iteration 1 and
// then defers to next (nil means keep iterating).
func (r *startRecorder) option(tenant string, next func(int, float64) bool) Option {
	return WithProgress(func(iter int, measure float64) bool {
		if iter == 1 {
			r.mu.Lock()
			r.starts = append(r.starts, tenant)
			r.mu.Unlock()
		}
		return next == nil || next(iter, measure)
	})
}

func (r *startRecorder) startOrder() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.starts...)
}

// TestEnginePriorityUnderSaturation is the acceptance scenario: with the
// queue saturated by a low-priority backlog, a later high-priority submit
// runs (and completes) before any of the pre-queued backlog.
func TestEnginePriorityUnderSaturation(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 3
	knobs := withConfig(cfg)
	rec := &startRecorder{}
	eng := NewEngine(WithEngineThreads(1), WithJobConcurrency(1))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(20)

	hold, running, release := gateJob()
	gate := eng.Submit(ctx, Job{Tensor: ten, Tag: "gate", Tenant: "gate",
		Options: []Option{knobs, rec.option("gate", hold)}})
	<-running

	const backlog = 4
	lo := make([]<-chan JobResult, backlog)
	for i := range lo {
		lo[i] = eng.Submit(ctx, Job{Tensor: ten, Tag: fmt.Sprintf("lo-%d", i),
			Tenant: "batch", Priority: 0, Options: []Option{knobs, WithSeed(uint64(i)), rec.option("batch", nil)}})
	}
	hi := eng.Submit(ctx, Job{Tensor: ten, Tag: "hi", Tenant: "urgent", Priority: 10,
		Options: []Option{knobs, rec.option("urgent", nil)}})

	close(release)
	jr := <-hi
	if jr.Err != nil {
		t.Fatalf("high-priority job: %v", jr.Err)
	}
	for i, ch := range lo {
		if jr := <-ch; jr.Err != nil {
			t.Fatalf("backlog job %d: %v", i, jr.Err)
		}
	}
	// Pop order: gate first (it was running), then the high-priority job,
	// then the FIFO backlog.
	order := rec.startOrder()
	want := []string{"gate", "urgent", "batch", "batch", "batch", "batch"}
	if len(order) != len(want) {
		t.Fatalf("start order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("start order %v, want %v", order, want)
		}
	}
	<-gate
}

// TestEngineTenantQuotaReject: an over-quota tenant gets an immediate typed
// rejection carrying the tenant, without consuming a shared queue slot.
func TestEngineTenantQuotaReject(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 2
	knobs := withConfig(cfg)
	eng := NewEngine(WithEngineThreads(1), WithJobConcurrency(1), WithTenantQuota(1, 1))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(21)

	hold, running, release := gateJob()
	gate := eng.Submit(ctx, Job{Tensor: ten, Tag: "gate", Tenant: "gate", Options: []Option{knobs, WithProgress(hold)}})
	<-running

	queued := eng.Submit(ctx, Job{Tensor: ten, Tag: "q", Tenant: "noisy", Options: []Option{knobs}})
	over := <-eng.Submit(ctx, Job{Tensor: ten, Tag: "over", Tenant: "noisy", Options: []Option{knobs}})
	if !errors.Is(over.Err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit err = %v, want ErrQuotaExceeded", over.Err)
	}
	var qe *QuotaError
	if !errors.As(over.Err, &qe) || qe.Tenant != "noisy" {
		t.Fatalf("quota error %v must carry the tenant", over.Err)
	}
	// The rejection consumed no queue slot: another tenant still fits.
	other := eng.Submit(ctx, Job{Tensor: ten, Tag: "other", Tenant: "quiet", Options: []Option{knobs}})

	close(release)
	for tag, ch := range map[string]<-chan JobResult{"gate": gate, "q": queued, "other": other} {
		if jr := <-ch; jr.Err != nil {
			t.Fatalf("job %s: %v", tag, jr.Err)
		}
	}
	if ts := eng.Stats().Tenant("noisy"); ts.Rejected != 1 || ts.Admitted != 1 {
		t.Fatalf("noisy stats = %+v, want 1 admitted + 1 rejected", ts)
	}
}

// TestEngineQuotaReleasedOnCancelWhileQueued: cancelling a queued job frees
// its tenant's quota so the tenant can submit again; the cancelled job
// delivers ctx.Err() and never runs.
func TestEngineQuotaReleasedOnCancelWhileQueued(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 2
	knobs := withConfig(cfg)
	eng := NewEngine(WithEngineThreads(1), WithJobConcurrency(1), WithTenantQuota(1, 1))
	defer eng.Close()
	ten := engineTestTensor(22)

	hold, running, release := gateJob()
	gate := eng.Submit(context.Background(), Job{Tensor: ten, Tag: "gate", Tenant: "gate", Options: []Option{knobs, WithProgress(hold)}})
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	queued := eng.Submit(ctx, Job{Tensor: ten, Tag: "q", Tenant: "noisy", Options: []Option{knobs}})
	cancel()
	if jr := <-queued; !errors.Is(jr.Err, context.Canceled) {
		t.Fatalf("cancelled-while-queued err = %v, want context.Canceled", jr.Err)
	}
	// The quota slot is released (the scheduler removes the ticket
	// asynchronously from the context's AfterFunc; poll briefly).
	var retry <-chan JobResult
	deadline := time.Now().Add(5 * time.Second)
	for {
		jrCh := eng.Submit(context.Background(), Job{Tensor: ten, Tag: "retry", Tenant: "noisy", Options: []Option{knobs}})
		select {
		case jr := <-jrCh:
			if !errors.Is(jr.Err, ErrQuotaExceeded) {
				t.Fatalf("retry submit err = %v", jr.Err)
			}
			if time.Now().After(deadline) {
				t.Fatal("quota never released after cancel-while-queued")
			}
			time.Sleep(time.Millisecond)
			continue
		case <-time.After(20 * time.Millisecond):
			// No immediate rejection: the job was admitted.
			retry = jrCh
		}
		break
	}
	close(release)
	if jr := <-gate; jr.Err != nil {
		t.Fatalf("gate: %v", jr.Err)
	}
	if jr := <-retry; jr.Err != nil {
		t.Fatalf("retry after quota release: %v", jr.Err)
	}
}

// TestEnginePriorityDeterminism: priorities and tenants reorder WHEN jobs
// run, never what they compute — every result is bit-identical to a serial
// run with the same tensor and options, whatever the queue contention.
func TestEnginePriorityDeterminism(t *testing.T) {
	cfg := engineTestConfig()
	eng := NewEngine(WithEngineThreads(3), WithJobConcurrency(2), WithQueueDepth(4))
	defer eng.Close()
	ctx := context.Background()

	const jobs = 10
	tensors := make([]*Irregular, jobs)
	baselines := make([]*Result, jobs)
	for i := range tensors {
		tensors[i] = engineTestTensor(uint64(30 + i%4))
		serial := cfg
		serial.Seed = uint64(i)
		serial.Threads = 1
		var err error
		baselines[i], err = parafac2.DPar2Ctx(ctx, tensors[i], serial)
		if err != nil {
			t.Fatal(err)
		}
	}
	pending := make([]<-chan JobResult, jobs)
	for i := range pending {
		pending[i] = eng.Submit(ctx, Job{
			Tensor:   tensors[i],
			Tag:      fmt.Sprint(i),
			Tenant:   fmt.Sprintf("t%d", i%3),
			Priority: (i * 7) % 5, // scrambled priorities reorder the queue
			Options:  []Option{withConfig(cfg), WithSeed(uint64(i))},
		})
	}
	for i, ch := range pending {
		res, err := (<-ch).Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Fitness != baselines[i].Fitness {
			t.Fatalf("job %d: fitness %v != serial %v", i, res.Fitness, baselines[i].Fitness)
		}
		if !res.H.EqualApprox(baselines[i].H, 0) || !res.V.EqualApprox(baselines[i].V, 0) {
			t.Fatalf("job %d: factors differ from serial run", i)
		}
	}
}

// TestEngineStatsAccounting: Engine.Stats' per-tenant accounting is
// consistent once traffic drains — every admit either started or was
// cancelled, every start finished, and latencies are observed.
func TestEngineStatsAccounting(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 2
	eng := NewEngine(WithEngineThreads(2), WithJobConcurrency(2))
	ctx := context.Background()

	const jobs = 8
	pending := make([]<-chan JobResult, jobs)
	for i := range pending {
		pending[i] = eng.Submit(ctx, Job{
			Tensor:  engineTestTensor(uint64(40 + i)),
			Tenant:  fmt.Sprintf("tenant-%d", i%2),
			Options: []Option{withConfig(cfg), WithSeed(uint64(i))},
		})
	}
	for _, ch := range pending {
		if jr := <-ch; jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	eng.Close()

	stats := eng.Stats()
	var admitted, completed int64
	for _, ts := range stats.Tenants {
		admitted += ts.Admitted
		completed += ts.Completed
		if ts.Admitted != ts.Started+ts.Cancelled {
			t.Fatalf("tenant %s: admitted %d != started %d + cancelled %d",
				ts.Tenant, ts.Admitted, ts.Started, ts.Cancelled)
		}
		if ts.Started != ts.Completed+ts.Failed {
			t.Fatalf("tenant %s: started %d != completed %d + failed %d",
				ts.Tenant, ts.Started, ts.Completed, ts.Failed)
		}
		if ts.Completed > 0 && ts.MeanRunTime() <= 0 {
			t.Fatalf("tenant %s: completed %d jobs with zero run time", ts.Tenant, ts.Completed)
		}
	}
	if admitted != jobs || completed != jobs {
		t.Fatalf("admitted %d completed %d, want %d each", admitted, completed, jobs)
	}
	if stats.MaxDepth < 1 {
		t.Fatal("stats never observed a queue depth")
	}
}

// TestEngineSubmitVsCloseRace: concurrent Submits racing Close (with mixed
// tenants, priorities, and cancels) each deliver exactly one result from the
// allowed set, accepted jobs complete, and Close returns. Run with -race.
func TestEngineSubmitVsCloseRace(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 2
	for round := 0; round < 3; round++ {
		eng := NewEngine(WithEngineThreads(2), WithJobConcurrency(2), WithQueueDepth(4), WithTenantQuota(8, 8))
		ten := engineTestTensor(uint64(50 + round))

		const submitters = 6
		results := make(chan JobResult, submitters*4)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					ch := eng.Submit(ctx, Job{
						Tensor:   ten,
						Tag:      fmt.Sprintf("%d-%d", s, i),
						Tenant:   fmt.Sprintf("t%d", s%3),
						Priority: i % 3,
						Options:  []Option{withConfig(cfg), WithSeed(uint64(i))},
					})
					if i%2 == 0 {
						cancel()
					} else {
						defer cancel()
					}
					results <- <-ch
				}
			}()
		}
		time.Sleep(time.Duration(round) * 2 * time.Millisecond)
		eng.Close()
		wg.Wait()
		close(results)
		for jr := range results {
			switch {
			case jr.Err == nil:
			case errors.Is(jr.Err, ErrEngineClosed):
			case errors.Is(jr.Err, context.Canceled):
			case errors.Is(jr.Err, ErrQuotaExceeded):
			default:
				t.Fatalf("job %s: unexpected error %v", jr.Tag, jr.Err)
			}
		}
	}
}

// TestEngineDrainedAfterCloseComplete: jobs accepted before Close — still
// queued behind a gate — all run to completion during the Close drain.
func TestEngineDrainedAfterCloseComplete(t *testing.T) {
	cfg := engineTestConfig()
	cfg.Rank = 3
	cfg.MaxIters = 2
	knobs := withConfig(cfg)
	eng := NewEngine(WithEngineThreads(1), WithJobConcurrency(1))
	ten := engineTestTensor(60)

	hold, running, release := gateJob()
	gate := eng.Submit(context.Background(), Job{Tensor: ten, Tag: "gate", Options: []Option{knobs, WithProgress(hold)}})
	<-running

	const backlog = 5
	pending := make([]<-chan JobResult, backlog)
	for i := range pending {
		pending[i] = eng.Submit(context.Background(), Job{
			Tensor: ten, Tag: fmt.Sprint(i),
			Tenant: fmt.Sprintf("t%d", i%2), Priority: i % 3,
			Options: []Option{knobs},
		})
	}
	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	time.Sleep(10 * time.Millisecond) // let Close begin while the backlog is queued
	close(release)

	if jr := <-gate; jr.Err != nil {
		t.Fatalf("gate: %v", jr.Err)
	}
	for i, ch := range pending {
		if jr := <-ch; jr.Err != nil {
			t.Fatalf("drained job %d must complete, got %v", i, jr.Err)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the drain")
	}
}

// TestEngineFitnessAfterClose is the regression test for post-Close
// evaluation: Fitness after Close runs on the closed pool, which executes
// the work inline on the caller, so it returns without hanging and yields
// the identical value.
func TestEngineFitnessAfterClose(t *testing.T) {
	ten := engineTestTensor(61)
	eng := NewEngine(WithEngineThreads(2))
	res, err := eng.Decompose(context.Background(), ten, withConfig(engineTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Fitness(ten, res)
	eng.Close()
	done := make(chan float64, 1)
	go func() { done <- eng.Fitness(ten, res) }()
	select {
	case after := <-done:
		if after != before {
			t.Fatalf("post-Close Fitness %v != pre-Close %v", after, before)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fitness hung on a closed engine")
	}
}

// TestEngineOptionValidationPanics: engine options reject non-positive (or
// nil) values loudly instead of silently yielding defaults — the one
// validation rule for NewEngine options.
func TestEngineOptionValidationPanics(t *testing.T) {
	mustPanic := func(name string, opt EngineOption) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		opt(&engineSettings{})
	}
	mustPanic("WithQueueDepth(0)", WithQueueDepth(0))
	mustPanic("WithQueueDepth(-1)", WithQueueDepth(-1))
	mustPanic("WithJobConcurrency(0)", WithJobConcurrency(0))
	mustPanic("WithJobConcurrency(-3)", WithJobConcurrency(-3))
	mustPanic("WithTenantQuota(0, 1)", WithTenantQuota(0, 1))
	mustPanic("WithTenantQuota(1, 0)", WithTenantQuota(1, 0))
	mustPanic("WithTenantQuota(-1, -1)", WithTenantQuota(-1, -1))
	mustPanic("WithTenantQuotaOverrides(nil)", WithTenantQuotaOverrides(nil))
	mustPanic("WithTenantQuotaOverrides(bad)", WithTenantQuotaOverrides(
		map[string]TenantQuota{"t": {MaxQueued: 0, MaxRunning: 1}}))

	// Positive values configure without panicking.
	s := engineSettings{}
	WithQueueDepth(7)(&s)
	WithJobConcurrency(2)(&s)
	WithTenantQuota(3, 1)(&s)
	WithTenantQuotaOverrides(map[string]TenantQuota{"vip": {MaxQueued: 9, MaxRunning: 4}})(&s)
	if s.queueDepth != 7 || s.jobWorkers != 2 || s.quota.MaxQueued != 3 ||
		s.overrides["vip"].MaxRunning != 4 {
		t.Fatalf("options did not apply: %+v", s)
	}
}
