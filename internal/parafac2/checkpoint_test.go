package parafac2

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/rng"
	"repro/internal/state"
	"repro/internal/tensor"
)

func checkpointBytes(t *testing.T, s *StreamingDPar2) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamsEqualBits asserts two streams are in bit-identical state: compressed
// representation, factors, absorb count, and RNG stream.
func streamsEqualBits(t *testing.T, a, b *StreamingDPar2) {
	t.Helper()
	if a.K() != b.K() {
		t.Fatalf("K: %d vs %d", a.K(), b.K())
	}
	if a.g.State() != b.g.State() {
		t.Fatal("RNG state diverged")
	}
	compressedEqualBits(t, a.Compressed(), b.Compressed())
	ra, rb := a.Result(), b.Result()
	if (ra == nil) != (rb == nil) {
		t.Fatal("one stream lost its result")
	}
	if ra == nil {
		return
	}
	if !ra.H.EqualApprox(rb.H, 0) || !ra.V.EqualApprox(rb.V, 0) {
		t.Fatal("H/V not bit-identical")
	}
	if ra.K() != rb.K() {
		t.Fatalf("result K: %d vs %d", ra.K(), rb.K())
	}
	for k := 0; k < ra.K(); k++ {
		if !ra.Qk(k).EqualApprox(rb.Qk(k), 0) {
			t.Fatalf("Q_%d not bit-identical", k)
		}
		for i := range ra.S[k] {
			if ra.S[k][i] != rb.S[k][i] {
				t.Fatalf("S_%d not bit-identical", k)
			}
		}
	}
}

// TestCheckpointRestoreAbsorbBitIdentical is the tentpole contract:
// checkpoint → restore → AbsorbCtx produces exactly the bytes an uninterrupted
// stream produces — compressed state, factors, RNG, everything.
func TestCheckpointRestoreAbsorbBitIdentical(t *testing.T) {
	g := rng.New(91)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55, 38, 42, 47, 51}, 16, 3, 0.02)
	cfg := smallConfig(3)

	ref, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:3]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AbsorbCtx(context.Background(), full.Slices[3:5]); err != nil {
		t.Fatal(err)
	}

	// Snapshot mid-stream, then keep both the original and the restored copy
	// absorbing the same batches.
	snap := checkpointBytes(t, ref)
	back, err := RestoreStream(bytes.NewReader(snap), cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamsEqualBits(t, ref, back)

	if err := ref.AbsorbCtx(context.Background(), full.Slices[5:7]); err != nil {
		t.Fatal(err)
	}
	if err := back.AbsorbCtx(context.Background(), full.Slices[5:7]); err != nil {
		t.Fatal(err)
	}
	streamsEqualBits(t, ref, back)

	// And again, to show the restored stream keeps pace indefinitely.
	if err := ref.AbsorbCtx(context.Background(), full.Slices[7:]); err != nil {
		t.Fatal(err)
	}
	if err := back.AbsorbCtx(context.Background(), full.Slices[7:]); err != nil {
		t.Fatal(err)
	}
	streamsEqualBits(t, ref, back)

	if !back.Result().Factored() {
		t.Fatal("restored stream result lost its factored form")
	}
}

// TestCheckpointRestoreKeepsRetryContract: the PR-4 retry guarantee (cancel →
// retry is bit-identical to uninterrupted) survives a checkpoint/restore in
// the middle — restore, cancel an absorb, retry it, and the stream still
// matches the uninterrupted reference bit for bit.
func TestCheckpointRestoreKeepsRetryContract(t *testing.T) {
	g := rng.New(92)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55, 38, 42}, 16, 3, 0.02)
	cfg := smallConfig(3)
	cfg.Threads = 1 // deterministic ctx.Err() call sequence

	ref, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:2]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointBytes(t, ref)
	batch1, batch2 := full.Slices[2:4], full.Slices[4:6]
	if err := ref.AbsorbCtx(context.Background(), batch1); err != nil {
		t.Fatal(err)
	}
	if err := ref.AbsorbCtx(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}

	back, err := RestoreStream(bytes.NewReader(snap), cfg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &errAfterCtx{failAfter: 3} // cancels at the post-sketch checkpoint
	if err := back.AbsorbCtx(flaky, batch1); err == nil {
		t.Fatal("expected cancellation error")
	}
	if back.K() != 2 {
		t.Fatal("cancelled absorb mutated the restored stream")
	}
	if err := back.AbsorbCtx(context.Background(), batch1); err != nil {
		t.Fatal(err)
	}
	if err := back.AbsorbCtx(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}
	streamsEqualBits(t, ref, back)
}

// TestRestoreStreamConfigSplit: deterministic knobs come from the checkpoint
// (the caller cannot accidentally resume at a different rank or seed), while
// runtime bindings come from the caller.
func TestRestoreStreamConfigSplit(t *testing.T) {
	g := rng.New(93)
	full := synthPARAFAC2(g, []int{40, 50, 45}, 16, 3, 0.02)
	cfg := smallConfig(3)
	s, err := NewStreamingDPar2Ctx(context.Background(), full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RefreshIters = 5
	snap := checkpointBytes(t, s)

	caller := DefaultConfig() // different rank/seed/etc from smallConfig
	caller.Threads = 2
	back, err := RestoreStream(bytes.NewReader(snap), caller)
	if err != nil {
		t.Fatal(err)
	}
	if back.cfg.Rank != cfg.Rank || back.cfg.Seed != cfg.Seed ||
		back.cfg.MaxIters != cfg.MaxIters || back.cfg.Oversample != cfg.Oversample {
		t.Fatalf("restored config lost checkpointed knobs: %+v", back.cfg)
	}
	if back.cfg.Threads != 2 {
		t.Fatal("restored config ignored caller's runtime Threads")
	}
	if back.RefreshIters != 5 {
		t.Fatalf("RefreshIters %d, want 5", back.RefreshIters)
	}
	if back.K() != 3 {
		t.Fatalf("absorbed %d, want 3", back.K())
	}
	res := back.Result()
	if res.Fitness != s.Result().Fitness || res.FitnessKind != s.Result().FitnessKind ||
		res.Iters != s.Result().Iters || res.PreprocessedBytes != s.Result().PreprocessedBytes {
		t.Fatal("result metadata not preserved")
	}
}

// TestRestoreStreamRejectsCorrupt: every single-byte flip and every
// truncation of a valid checkpoint is rejected with ErrCheckpoint — the
// trailer is mandatory, so even a cut at the payload/trailer boundary fails.
func TestRestoreStreamRejectsCorrupt(t *testing.T) {
	g := rng.New(94)
	full := synthPARAFAC2(g, []int{40, 50, 45}, 14, 3, 0.02)
	s, err := NewStreamingDPar2Ctx(context.Background(), full, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	valid := checkpointBytes(t, s)

	if _, err := RestoreStream(bytes.NewReader(valid), smallConfig(3)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := RestoreStream(bytes.NewReader(valid[:cut]), smallConfig(3)); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("truncation at %d: want ErrCheckpoint, got %v", cut, err)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x01
		if _, err := RestoreStream(bytes.NewReader(mut), smallConfig(3)); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

// TestCheckpointAtomicFileRoundtrip: the documented pairing with
// state.WriteFileAtomic works end to end.
func TestCheckpointAtomicFileRoundtrip(t *testing.T) {
	g := rng.New(95)
	full := synthPARAFAC2(g, []int{40, 50, 45, 55}, 14, 3, 0.02)
	cfg := smallConfig(3)
	s, err := NewStreamingDPar2Ctx(context.Background(), tensor.MustIrregular(full.Slices[:3]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/stream.dpc2"
	if err := state.WriteFileAtomic(path, s.Checkpoint); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := RestoreStream(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AbsorbCtx(context.Background(), full.Slices[3:]); err != nil {
		t.Fatal(err)
	}
	if err := back.AbsorbCtx(context.Background(), full.Slices[3:]); err != nil {
		t.Fatal(err)
	}
	streamsEqualBits(t, s, back)
}
