package parafac2

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func ctxTestTensor(t *testing.T) *tensor.Irregular {
	t.Helper()
	g := rng.New(11)
	return synthPARAFAC2(g, []int{40, 55, 35, 60}, 14, 3, 0.02)
}

// TestRegistryResolvesAllMethods: the four algorithms are registered under
// their canonical names and the aliases the CLI accepts.
func TestRegistryResolvesAllMethods(t *testing.T) {
	want := []string{"dpar2", "rd-als", "als", "spartan"}
	got := MethodNames()
	if len(got) != len(want) {
		t.Fatalf("MethodNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MethodNames() = %v, want %v (legend order)", got, want)
		}
	}
	for alias, canon := range map[string]string{
		"DPar2": "dpar2", "rdals": "rd-als", "RD-ALS": "rd-als",
		"parafac2-als": "als", "ALS": "als", "SPARTan": "spartan",
	} {
		m, ok := Lookup(alias)
		if !ok || m.Name() != canon {
			t.Fatalf("Lookup(%q) → %v, want method %q", alias, m, canon)
		}
	}
	if _, err := MustLookup("nope"); err == nil {
		t.Fatal("MustLookup of unknown method must error")
	}
}

// TestRegistryMatchesFreeFunctions: dispatching through the registry is
// bit-identical to calling each algorithm's function directly.
func TestRegistryMatchesFreeFunctions(t *testing.T) {
	ten := ctxTestTensor(t)
	cfg := smallConfig(3)
	cfg.MaxIters = 5
	free := map[string]func(context.Context, *tensor.Irregular, Config) (*Result, error){
		"dpar2": DPar2Ctx, "rd-als": RDALSCtx, "als": ALSCtx, "spartan": SPARTanCtx,
	}
	for name, fn := range free {
		want, err := fn(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := Lookup(name)
		got, err := m.Decompose(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fitness != want.Fitness {
			t.Fatalf("%s: registry fitness %v != free function %v", name, got.Fitness, want.Fitness)
		}
		if !got.H.EqualApprox(want.H, 0) || !got.V.EqualApprox(want.V, 0) {
			t.Fatalf("%s: registry factors differ from free function", name)
		}
	}
}

// TestCancelledContextBeforeStart: an already-done context stops every
// method before any work, returning the unwrapped ctx.Err().
func TestCancelledContextBeforeStart(t *testing.T) {
	ten := ctxTestTensor(t)
	cfg := smallConfig(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range MethodNames() {
		m, _ := Lookup(name)
		res, err := m.Decompose(ctx, ten, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Fatalf("%s: returned a result alongside the error", name)
		}
	}
	if _, err := CompressCtx(ctx, ten, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressCtx: err = %v, want context.Canceled", err)
	}
}

// TestCancelMidIterationReturnsPromptly: cancelling from a Progress callback
// (i.e. mid-run, between iterations) stops every method within one iteration
// and surfaces ctx.Err() — not a partial Result.
func TestCancelMidIterationReturnsPromptly(t *testing.T) {
	ten := ctxTestTensor(t)
	for _, name := range MethodNames() {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := smallConfig(3)
		cfg.MaxIters = 200
		cfg.Tol = 0 // never converge: only the context can stop it early
		lastIter := 0
		cfg.Progress = func(iter int, _ float64) bool {
			lastIter = iter
			if iter == 2 {
				cancel()
			}
			return true
		}
		m, _ := Lookup(name)
		res, err := m.Decompose(ctx, ten, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Fatalf("%s: returned a result after cancellation", name)
		}
		if lastIter > 3 {
			t.Fatalf("%s: ran %d iterations after cancel at 2 (not prompt)", name, lastIter)
		}
	}
}

// TestDeadlineExceeded: a deadline in the past surfaces as DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	ten := ctxTestTensor(t)
	cfg := smallConfig(3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := DPar2Ctx(ctx, ten, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelledAbsorbLeavesStreamUsable: a cancelled AbsorbCtx reports the
// context error without corrupting the stream (the slice count is unchanged
// and a later absorb succeeds).
func TestCancelledAbsorbLeavesStreamUsable(t *testing.T) {
	g := rng.New(21)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55, 42, 48}, 14, 3, 0.02)
	cfg := smallConfig(3)
	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:4]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AbsorbCtx(ctx, full.Slices[4:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("AbsorbCtx err = %v, want context.Canceled", err)
	}
	if s.K() != 4 {
		t.Fatalf("cancelled absorb changed K to %d", s.K())
	}
	if err := s.AbsorbCtx(context.Background(), full.Slices[4:]); err != nil {
		t.Fatal(err)
	}
	if s.K() != 6 {
		t.Fatalf("K = %d after successful absorb, want 6", s.K())
	}
}

// TestCancellationDoesNotLeakGoroutines: cancelled decompositions on
// transient pools must release their workers (run under -race in CI).
func TestCancellationDoesNotLeakGoroutines(t *testing.T) {
	ten := ctxTestTensor(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := smallConfig(3)
		cfg.Threads = 4 // transient pool per call: 3 worker goroutines
		cfg.MaxIters = 100
		cfg.Tol = 0
		cfg.Progress = func(iter int, _ float64) bool {
			if iter == 1 {
				cancel()
			}
			return true
		}
		if _, err := DPar2Ctx(ctx, ten, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	// Workers exit asynchronously after Close; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d >> baseline %d after cancelled runs (leaked workers)",
		runtime.NumGoroutine(), before)
}

// TestCancelledRefreshRecoverable: when cancellation hits after the batch
// was folded in (during the factor refresh), AbsorbCtx reports a wrapped
// error, K counts the batch, and Refresh recovers the factors without
// re-absorbing.
func TestCancelledRefreshRecoverable(t *testing.T) {
	g := rng.New(22)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55, 42, 48}, 14, 3, 0.02)
	cfg := smallConfig(3)
	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:4]), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from inside the refresh: the append phase has completed by the
	// time Progress first fires.
	ctx, cancel := context.WithCancel(context.Background())
	s.cfg.Progress = func(iter int, _ float64) bool {
		cancel()
		return true
	}
	err = s.AbsorbCtx(ctx, full.Slices[4:])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AbsorbCtx err = %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, context.DeadlineExceeded) || err == context.Canceled {
		t.Fatal("refresh-phase error must be wrapped with absorbed-batch context")
	}
	if s.K() != 6 {
		t.Fatalf("K = %d, want 6 (batch IS absorbed once append succeeded)", s.K())
	}

	// Recover without re-absorbing.
	s.cfg.Progress = nil
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Result().K() != 6 {
		t.Fatalf("recovered result covers %d slices, want 6", s.Result().K())
	}
	if fit := FitnessWith(full, s.Result(), nil); fit < 0.95 {
		t.Fatalf("recovered fitness %v", fit)
	}
}
