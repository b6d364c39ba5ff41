package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/dataio"
	"repro/internal/parafac2"
	"repro/internal/state"
)

// This file is the Engine's durable-state surface: stream checkpointing
// (SaveStream/ResumeStream) and the content-addressed result cache consulted
// by Decompose/Submit. The primitives live in internal/state, the formats in
// internal/parafac2 (checkpoints) and internal/dataio (results); see
// docs/DURABILITY.md for the formats and the crash-safety contract.

// statePath resolves a stream path: relative paths land under the
// WithStateDir root when one is configured.
func (e *Engine) statePath(path string) string {
	if e.stateDir != "" && !filepath.IsAbs(path) {
		return filepath.Join(e.stateDir, path)
	}
	return path
}

// SaveStream checkpoints a stream to the named file atomically: the complete
// stream state (configuration, RNG, compressed representation, factors) is
// written to a temp file, fsynced, and renamed over path, so a crash
// mid-checkpoint leaves the previous checkpoint intact. A relative path
// resolves under the WithStateDir root when one is configured. The stream
// itself is untouched and keeps absorbing.
func (e *Engine) SaveStream(path string, s *StreamingDPar2) error {
	if e.isClosed() {
		return ErrEngineClosed
	}
	if s == nil {
		return errors.New("repro: SaveStream with nil stream")
	}
	dst := e.statePath(path)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return state.WriteFileAtomic(dst, s.Checkpoint)
}

// ResumeStream restores a stream from a SaveStream checkpoint and rebinds it
// to the Engine's pool: the next AbsorbCtx is bit-identical to the same
// AbsorbCtx on the stream that was checkpointed. Deterministic knobs (rank,
// seed, iteration budget, sketch parameters) come from the checkpoint; opts
// may adjust only runtime bindings the same way NewStream accepts them (an
// option that names a non-DPar2 method is an error, like NewStream).
func (e *Engine) ResumeStream(ctx context.Context, path string, opts ...Option) (*StreamingDPar2, error) {
	_, _, _, cfg, err := e.prepare(ctx, opts, true, "ResumeStream")
	if err != nil {
		return nil, err
	}
	f, err := os.Open(e.statePath(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parafac2.RestoreStream(f, cfg)
}

// resultCacheKey derives the cache key for one decomposition, or reports the
// call uncacheable: caching is off, or a Progress callback must run. The key
// is a sha256 over a format tag, the numerics epoch, the method name, the
// request's canonical Spec (every deterministic knob, with ShardRows
// resolved to its effective threshold), and a digest of the tensor's
// serialized content — so any change to input data, to a result-affecting
// parameter or to the arithmetic (parafac2.NumericsEpoch) misses, while
// Threads/Pool (which never change the computed bits) do not split the
// cache. Because the key reads only the Spec, an HTTP request resolved to
// the same Spec (internal/service) hits the same entry as the equivalent
// in-process call.
func (e *Engine) resultCacheKey(m parafac2.Method, t *Irregular, js jobSpec) (string, bool) {
	if e.cache == nil || js.progress != nil {
		return "", false
	}
	th := sha256.New()
	if err := dataio.WriteTensor(th, t); err != nil {
		return "", false
	}
	spec := js.spec
	var knobs [9 * 8]byte
	for i, v := range [...]uint64{
		uint64(spec.Rank),
		uint64(spec.MaxIters),
		math.Float64bits(spec.Tol),
		spec.Seed,
		uint64(spec.Oversample),
		uint64(spec.PowerIters),
		uint64(int64(spec.shardRowsThreshold())),
		math.Float64bits(spec.Ridge),
		boolBit(spec.NonnegativeS),
	} {
		binary.LittleEndian.PutUint64(knobs[i*8:], v)
	}
	var epoch [8]byte
	binary.LittleEndian.PutUint64(epoch[:], parafac2.NumericsEpoch)
	return state.Key(
		[]byte("repro:result-cache:v1"),
		epoch[:],
		[]byte(m.Name()),
		knobs[:],
		th.Sum(nil),
	), true
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Cached-entry payload: a small run-metadata header, then the dataio result
// format. ReadResult deliberately drops run artifacts (fitness, iteration
// count), but a cache hit stands in for the run itself, so those must come
// back; the header carries them. Timings stay zero on a hit — the work they
// would measure never happened.
const cacheHdrWords = 4

// cacheLookup fetches and decodes a cached result, or returns nil on a miss;
// any corruption is handled inside state.Cache (entry dropped, reported as a
// miss).
func (e *Engine) cacheLookup(key string) *Result {
	var res *Result
	if !e.cache.Get(key, func(r io.Reader) error {
		var hdr [cacheHdrWords * 8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		dec, err := dataio.ReadResult(r)
		if err != nil {
			return err
		}
		dec.Fitness = math.Float64frombits(binary.LittleEndian.Uint64(hdr[0:]))
		dec.FitnessKind = FitnessKind(binary.LittleEndian.Uint64(hdr[8:]))
		dec.Iters = int(binary.LittleEndian.Uint64(hdr[16:]))
		dec.PreprocessedBytes = int64(binary.LittleEndian.Uint64(hdr[24:]))
		res = dec
		return nil
	}) {
		return nil
	}
	return res
}

// cacheStore persists a successful result. Best-effort: a full disk or
// unwritable cache directory must not fail the decomposition that produced
// the result, so the error is dropped (the next lookup simply misses).
func (e *Engine) cacheStore(key string, res *Result) {
	_ = e.cache.Put(key, func(w io.Writer) error {
		var hdr [cacheHdrWords * 8]byte
		binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(res.Fitness))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(res.FitnessKind))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(res.Iters))
		binary.LittleEndian.PutUint64(hdr[24:], uint64(res.PreprocessedBytes))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		return dataio.WriteResult(w, res)
	})
}
