package parafac2

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestAppendMatchesFullCompressOnExactData(t *testing.T) {
	// On exact low-rank data both the incremental and the full compression
	// are lossless, so slice approximations must match the originals.
	g := rng.New(1)
	full := synthPARAFAC2(g, []int{40, 60, 50, 70, 55}, 20, 3, 0)
	cfg := smallConfig(3)

	initial := tensor.MustIrregular(full.Slices[:3])
	comp, err := CompressCtx(context.Background(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.AppendCtx(context.Background(), rng.New(99), full.Slices[3:], cfg); err != nil {
		t.Fatal(err)
	}
	if len(comp.A) != 5 || len(comp.F) != 5 {
		t.Fatalf("compressed holds %d/%d slices, want 5", len(comp.A), len(comp.F))
	}
	for k := range full.Slices {
		rel := comp.SliceApprox(k).FrobDist(full.Slices[k]) / full.Slices[k].FrobNorm()
		if rel > 1e-6 {
			t.Fatalf("slice %d approx error %v after append", k, rel)
		}
	}
	if !comp.D.IsOrthonormalCols(1e-8) {
		t.Fatal("D lost orthonormality after append")
	}
}

func TestAppendValidation(t *testing.T) {
	g := rng.New(2)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	cfg := smallConfig(2)
	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := comp.AppendCtx(context.Background(), g, nil, cfg); err != nil {
		t.Fatalf("empty append should be a no-op: %v", err)
	}
	bad := []*mat.Dense{mat.New(20, 11)} // wrong column count
	if err := comp.AppendCtx(context.Background(), g, bad, cfg); err == nil {
		t.Fatal("expected column-mismatch error")
	}
	tiny := []*mat.Dense{mat.New(1, 10)} // fewer rows than rank
	if err := comp.AppendCtx(context.Background(), g, tiny, cfg); err == nil {
		t.Fatal("expected rank/rows error")
	}
}

func TestAppendRejectsNarrowCompressed(t *testing.T) {
	// A hand-built Compressed with J < rank (which no validated
	// decomposition produces) must be rejected before any work starts —
	// the rsvd padding path would otherwise silently mis-shape F blocks.
	g := rng.New(21)
	comp := &Compressed{J: 3, Rank: 5}
	bad := []*mat.Dense{mat.New(10, 3)}
	if err := comp.AppendCtx(context.Background(), g, bad, smallConfig(5)); err == nil {
		t.Fatal("expected J < rank error")
	}
}

func TestAbsorbEmptyBatchLeavesResultUntouched(t *testing.T) {
	// An empty batch must not burn RefreshIters warm-start iterations:
	// AbsorbCtx early-returns and Result stays the exact same object.
	g := rng.New(22)
	initial := synthPARAFAC2(g, []int{50, 60, 45}, 18, 3, 0.02)
	st, err := NewStreamingDPar2Ctx(context.Background(), initial, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	before := st.Result()
	fitBefore := before.Fitness
	if err := st.AbsorbCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbCtx(context.Background(), []*mat.Dense{}); err != nil {
		t.Fatal(err)
	}
	if st.Result() != before {
		t.Fatal("empty AbsorbCtx replaced Result (ran a refresh)")
	}
	if st.Result().Fitness != fitBefore {
		t.Fatal("empty AbsorbCtx changed the factors")
	}
	if st.K() != initial.K() {
		t.Fatalf("empty AbsorbCtx changed K to %d", st.K())
	}
}

func TestStreamingDPar2TracksBatches(t *testing.T) {
	g := rng.New(3)
	full := synthPARAFAC2(g, []int{50, 60, 45, 70, 55, 65, 40, 75}, 18, 3, 0.02)
	cfg := smallConfig(3)
	cfg.MaxIters = 40

	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:4]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 4 {
		t.Fatalf("K=%d want 4", s.K())
	}
	if err := s.AbsorbCtx(context.Background(), full.Slices[4:6]); err != nil {
		t.Fatal(err)
	}
	if err := s.AbsorbCtx(context.Background(), full.Slices[6:]); err != nil {
		t.Fatal(err)
	}
	if s.K() != 8 {
		t.Fatalf("K=%d want 8", s.K())
	}
	// The streamed factorization should fit the *entire* tensor well.
	fit := Fitness(full, s.Result())
	if fit < 0.95 {
		t.Fatalf("streaming fitness %v over all 8 slices", fit)
	}
	if s.Result().K() != 8 {
		t.Fatalf("result covers %d slices", s.Result().K())
	}
}

func TestStreamingComparableToBatch(t *testing.T) {
	g := rng.New(4)
	full := synthPARAFAC2(g, []int{60, 50, 70, 55, 65, 45}, 16, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 60

	batch, err := DPar2Ctx(context.Background(), full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:3]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AbsorbCtx(context.Background(), full.Slices[3:]); err != nil {
		t.Fatal(err)
	}
	streamFit := Fitness(full, s.Result())
	if streamFit < batch.Fitness-0.03 {
		t.Fatalf("streaming fitness %v far below batch %v", streamFit, batch.Fitness)
	}
}

// TestAbsorbWarmStartBoundsIterations: each AbsorbCtx refresh warm-starts from
// the previous factors and runs at most RefreshIters iterations (instead of
// the full MaxIters a cold start uses), without giving up fitness on data
// the previous factors already explain.
func TestAbsorbWarmStartBoundsIterations(t *testing.T) {
	g := rng.New(31)
	full := synthPARAFAC2(g, []int{50, 60, 45, 55, 65, 40, 70, 52}, 16, 3, 0.02)
	cfg := smallConfig(3)
	cfg.MaxIters = 40

	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:4]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Result().Iters; got < 1 {
		t.Fatalf("bootstrap ran %d iterations", got)
	}

	if err := s.AbsorbCtx(context.Background(), full.Slices[4:6]); err != nil {
		t.Fatal(err)
	}
	if got := s.Result().Iters; got > DefaultRefreshIters {
		t.Fatalf("warm absorb ran %d iterations, bound is %d", got, DefaultRefreshIters)
	}

	s.RefreshIters = 2
	if err := s.AbsorbCtx(context.Background(), full.Slices[6:]); err != nil {
		t.Fatal(err)
	}
	if got := s.Result().Iters; got > 2 {
		t.Fatalf("warm absorb ran %d iterations, bound is 2", got)
	}
	if s.Result().K() != 8 {
		t.Fatalf("result covers %d slices, want 8", s.Result().K())
	}
	if fit := Fitness(full, s.Result()); fit < 0.95 {
		t.Fatalf("warm-started streaming fitness %v over all slices", fit)
	}
}

// TestWarmStartIncompatibleFallsBack: a warmStart whose shapes do not match
// the compressed tensor is ignored (cold init), not an error or a panic.
func TestWarmStartIncompatibleFallsBack(t *testing.T) {
	g := rng.New(32)
	ten := synthPARAFAC2(g, []int{40, 50, 45}, 12, 3, 0.02)
	cfg := smallConfig(3)
	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}

	bad := &warmStart{h: mat.New(5, 5), v: mat.New(7, 5)} // wrong shapes
	res, err := dpar2Iterate(context.Background(), comp, cfg, bad)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := DPar2FromCompressedCtx(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.H.EqualApprox(cold.H, 0) {
		t.Fatal("incompatible warm start must fall back to the cold initialization")
	}
}

// TestCompressedFitnessEstimatePopulated: DPar2FromCompressedCtx now reports a
// compressed-space fitness. On exact low-rank data compression is lossless,
// so the estimate must agree closely with the true fitness; it must also be
// populated (the old behavior silently left 0).
func TestCompressedFitnessEstimatePopulated(t *testing.T) {
	g := rng.New(33)
	ten := synthPARAFAC2(g, []int{50, 60, 45, 55}, 15, 3, 0)
	cfg := smallConfig(3)
	cfg.MaxIters = 60

	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DPar2FromCompressedCtx(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness == 0 {
		t.Fatal("Result.Fitness left unpopulated by DPar2FromCompressedCtx")
	}
	truth := Fitness(ten, res)
	if diff := math.Abs(res.Fitness - truth); diff > 1e-6 {
		t.Fatalf("compressed-space fitness %v vs true fitness %v (diff %v) on lossless data",
			res.Fitness, truth, diff)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("fitness estimate %v on exact data", res.Fitness)
	}
}

// errAfterCtx is a context whose Err starts failing after a fixed number of
// checks — a deterministic way to cancel AppendCtx at a chosen internal
// checkpoint (with a serial config the Err call sequence is fixed).
type errAfterCtx struct {
	calls     int32
	failAfter int32
}

func (c *errAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfterCtx) Done() <-chan struct{}       { return nil }
func (c *errAfterCtx) Value(any) any               { return nil }
func (c *errAfterCtx) Err() error {
	if atomic.AddInt32(&c.calls, 1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// compressedEqualBits asserts two compressed representations are
// bit-identical (the retry contract is bit-level, not approximate).
func compressedEqualBits(t *testing.T, a, b *Compressed) {
	t.Helper()
	if len(a.A) != len(b.A) || len(a.F) != len(b.F) || len(a.E) != len(b.E) {
		t.Fatalf("shape mismatch: %d/%d A, %d/%d F, %d/%d E",
			len(a.A), len(b.A), len(a.F), len(b.F), len(a.E), len(b.E))
	}
	if !a.D.EqualApprox(b.D, 0) {
		t.Fatal("D not bit-identical")
	}
	for i := range a.E {
		if a.E[i] != b.E[i] {
			t.Fatalf("E[%d] not bit-identical", i)
		}
	}
	for k := range a.A {
		if !a.A[k].EqualApprox(b.A[k], 0) {
			t.Fatalf("A_%d not bit-identical", k)
		}
		if !a.F[k].EqualApprox(b.F[k], 0) {
			t.Fatalf("F_%d not bit-identical", k)
		}
	}
}

// TestAppendRetryBitReproducible: a cancelled AppendCtx must leave the
// caller's generator untouched, so cancel → retry reproduces an
// uninterrupted stream bit for bit. Before the fix, an append consumed n
// stage-1 Splits (plus the stage-2 draws) from the parent generator before
// the cancellation checkpoints, so a retried batch sketched with different
// randomness.
func TestAppendRetryBitReproducible(t *testing.T) {
	g := rng.New(71)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55, 38, 42}, 16, 3, 0.02)
	cfg := smallConfig(3)
	cfg.Threads = 1 // deterministic ctx.Err() call sequence
	initial := tensor.MustIrregular(full.Slices[:2])
	batch1, batch2 := full.Slices[2:4], full.Slices[4:6]

	// Uninterrupted reference run.
	ref, err := CompressCtx(context.Background(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gRef := rng.New(7)
	if err := ref.AppendCtx(context.Background(), gRef, batch1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendCtx(context.Background(), gRef, batch2, cfg); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancellation fires at the post-sketch checkpoint
	// (Err call 1 = entry, calls 2-3 = the two stage-1 units, call 4 =
	// after the sketches), i.e. after all of stage 1 already drew
	// randomness from the child generator.
	got, err := CompressCtx(context.Background(), initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gGot := rng.New(7)
	flaky := &errAfterCtx{failAfter: 3}
	err = got.AppendCtx(flaky, gGot, batch1, cfg)
	if err == nil {
		t.Fatal("expected cancellation error from mid-append cancel")
	}
	if len(got.A) != 2 || len(got.F) != 2 {
		t.Fatal("cancelled append mutated the compressed representation")
	}
	// Retry the same batch, then continue the stream.
	if err := got.AppendCtx(context.Background(), gGot, batch1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := got.AppendCtx(context.Background(), gGot, batch2, cfg); err != nil {
		t.Fatal(err)
	}

	compressedEqualBits(t, ref, got)
}

// TestAppendAllocsBoundedInK: the old-F basis rotation runs in place through
// recycled arena scratch, so per-batch allocations must not grow with the
// number of slices already absorbed (it used to allocate K fresh matrices
// plus the ScaleColumns/HConcat copies every batch).
func TestAppendAllocsBoundedInK(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Threads = 0 // serial: allocation counts are exact

	measure := func(k int) float64 {
		g := rng.New(uint64(80 + k))
		rows := make([]int, k)
		for i := range rows {
			rows[i] = 25 + 5*(i%4)
		}
		base, err := CompressCtx(context.Background(), synthPARAFAC2(g, rows, 12, 3, 0.02), cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := synthPARAFAC2(g, []int{30, 35}, 12, 3, 0.02).Slices

		const runs = 8
		comps := make([]*Compressed, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range comps {
			comps[i] = base.Clone()
		}
		idx := 0
		return testing.AllocsPerRun(runs, func() {
			c := comps[idx]
			idx++
			if err := c.AppendCtx(context.Background(), rng.New(9), batch, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}

	a8 := measure(8)
	a64 := measure(64)
	// Identical batch work; the only K-dependent allocations left are the
	// amortized growth of the A/F pointer slices. Allow modest slack for
	// arena/sync.Pool jitter.
	if a64 > a8*1.3+16 {
		t.Fatalf("AppendCtx allocations grew with K: %d slices -> %.0f allocs, %d slices -> %.0f allocs",
			8, a8, 64, a64)
	}
}

// TestStreamCloneIsIndependent: a cloned stream replays the same absorb with
// identical results, and absorbing into the clone leaves the original
// untouched (the A_k bases are shared, everything mutable is copied).
func TestStreamCloneIsIndependent(t *testing.T) {
	g := rng.New(73)
	full := synthPARAFAC2(g, []int{40, 48, 36, 52, 44, 41}, 14, 3, 0.02)
	cfg := smallConfig(3)
	cfg.MaxIters = 30

	st, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:4]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork := st.Clone()

	// Same batch into both: bit-identical outcomes (same RNG state).
	if err := st.AbsorbCtx(context.Background(), full.Slices[4:6]); err != nil {
		t.Fatal(err)
	}
	if err := fork.AbsorbCtx(context.Background(), full.Slices[4:6]); err != nil {
		t.Fatal(err)
	}
	compressedEqualBits(t, st.Compressed(), fork.Compressed())
	if !st.Result().H.EqualApprox(fork.Result().H, 0) || !st.Result().V.EqualApprox(fork.Result().V, 0) {
		t.Fatal("clone refresh diverged from original")
	}
	for k := 0; k < st.Result().K(); k++ {
		if !st.Result().Qk(k).EqualApprox(fork.Result().Qk(k), 0) {
			t.Fatalf("clone Qk(%d) diverged", k)
		}
	}

	// A further absorb into the fork must not touch the original.
	before := st.Compressed().D.Clone()
	if err := fork.AbsorbCtx(context.Background(), full.Slices[4:6]); err != nil {
		t.Fatal(err)
	}
	if st.K() != 6 || fork.K() != 8 {
		t.Fatalf("K: original %d (want 6), fork %d (want 8)", st.K(), fork.K())
	}
	if !st.Compressed().D.EqualApprox(before, 0) {
		t.Fatal("absorbing into the fork mutated the original stream")
	}
}
