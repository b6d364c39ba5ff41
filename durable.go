package repro

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
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

// TensorDigest is a tensor's content digest: the sha256 of its canonical
// DPT2 serialization (dataio.WriteTensor, checksum trailer included). It is
// the tensor part of the result-cache key, and internal/service derives its
// tensor IDs from it.
type TensorDigest [sha256.Size]byte

// DigestTensor computes t's TensorDigest. It costs a DPT2 encode of the
// whole tensor and two sha256 passes over it: WriteTensor's own trailer
// checksum and the digest.
func DigestTensor(t *Irregular) (TensorDigest, error) {
	var d TensorDigest
	h := sha256.New()
	if err := dataio.WriteTensor(h, t); err != nil {
		return d, err
	}
	h.Sum(d[:0])
	return d, nil
}

// resultCacheKey derives the cache key for one decomposition, or reports the
// call uncacheable: caching is off, or a Progress callback must run. The key
// is a sha256 over a format tag, the numerics epoch, the method name, the
// request's canonical Spec (every deterministic knob, with ShardRows
// resolved to its effective threshold), and the tensor's TensorDigest — the
// one the request carries (Job.Digest), else DigestTensor(t) — so any change
// to input data, to a result-affecting parameter or to the arithmetic
// (parafac2.NumericsEpoch) misses, while Threads/Pool (which never change
// the computed bits) do not split the cache. Because the key reads only the
// Spec, an HTTP request resolved to the same Spec (internal/service) hits
// the same entry as the equivalent in-process call.
func (e *Engine) resultCacheKey(m parafac2.Method, t *Irregular, js jobSpec) (string, bool) {
	if e.cache == nil || js.progress != nil {
		return "", false
	}
	digest := js.digest
	if digest == nil {
		d, err := DigestTensor(t)
		if err != nil {
			return "", false
		}
		digest = &d
	}
	spec := js.spec
	var knobs, epoch bytes.Buffer
	enc := state.NewEncoder(&knobs)
	enc.U64(uint64(spec.Rank))
	enc.U64(uint64(spec.MaxIters))
	enc.F64(spec.Tol)
	enc.U64(spec.Seed)
	enc.U64(uint64(spec.Oversample))
	enc.U64(uint64(spec.PowerIters))
	enc.I64(int64(spec.shardRowsThreshold()))
	enc.F64(spec.Ridge)
	enc.Bool(spec.NonnegativeS)
	state.NewEncoder(&epoch).U64(parafac2.NumericsEpoch)
	return state.Key(
		[]byte("repro:result-cache:v1"),
		epoch.Bytes(),
		[]byte(m.Name()),
		knobs.Bytes(),
		digest[:],
	), true
}

// Cached-entry payload: a small run-metadata header — Fitness,
// FitnessKind, Iters and PreprocessedBytes, one word each — then the dataio
// result format. ReadResult deliberately drops run artifacts (fitness,
// iteration count), but a cache hit stands in for the run itself, so those
// must come back; the header carries them. Timings stay zero on a hit — the
// work they would measure never happened.

// cacheLookup fetches and decodes a cached result, or returns nil on a miss;
// any corruption is handled inside state.Cache (entry dropped, reported as a
// miss).
func (e *Engine) cacheLookup(key string) *Result {
	var res *Result
	if !e.cache.Get(key, func(r io.Reader) error {
		br := bufio.NewReaderSize(r, 1<<20) // ReadResult reads on through br
		dec := state.NewDecoder(br)
		fitness := dec.F64()
		kind := FitnessKind(dec.U64())
		iters := int(dec.U64())
		pre := dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		got, err := dataio.ReadResult(br)
		if err != nil {
			return err
		}
		got.Fitness, got.FitnessKind, got.Iters, got.PreprocessedBytes = fitness, kind, iters, pre
		res = got
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
		bw := bufio.NewWriterSize(w, 1<<20) // WriteResult writes on through bw
		enc := state.NewEncoder(bw)
		enc.F64(res.Fitness)
		enc.U64(uint64(res.FitnessKind))
		enc.U64(uint64(res.Iters))
		enc.I64(res.PreprocessedBytes)
		if err := enc.Err(); err != nil {
			return err
		}
		return dataio.WriteResult(bw, res)
	})
}
