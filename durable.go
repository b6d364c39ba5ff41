package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
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

// EncodedResult is a successful decomposition in the form the result cache
// stores it: the run metadata a DPF2 payload does not carry (Fitness,
// FitnessKind, Iters, PreprocessedBytes) plus the factors' DPF2 bytes,
// exactly as dataio.WriteResult writes them. JobResult.Encoded returns it.
type EncodedResult struct {
	Fitness           float64
	FitnessKind       FitnessKind
	Iters             int
	PreprocessedBytes int64
	DPF2              []byte
}

// encodeResult encodes res, metadata and factors.
func encodeResult(res *Result) (EncodedResult, error) {
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		return EncodedResult{}, fmt.Errorf("repro: encode result: %w", err)
	}
	return EncodedResult{Fitness: res.Fitness, FitnessKind: res.FitnessKind, Iters: res.Iters,
		PreprocessedBytes: res.PreprocessedBytes, DPF2: buf.Bytes()}, nil
}

// decode rebuilds the Result r holds: the DPF2 factors with r's metadata.
// Timings stay zero, as on any deserialized result: the work they would
// measure did not happen here.
func (r EncodedResult) decode() (*Result, error) {
	res, err := dataio.ReadResult(bytes.NewReader(r.DPF2))
	if err != nil {
		return nil, err
	}
	res.Fitness, res.FitnessKind, res.Iters, res.PreprocessedBytes = r.Fitness, r.FitnessKind, r.Iters, r.PreprocessedBytes
	return res, nil
}

// A cache entry's payload is an EncodedResult: its run metadata as a
// four-word header, then the DPF2 bytes. ReadResult deliberately drops run
// artifacts (fitness, iteration count), but a cache hit stands in for the
// run itself, so the header carries them.

// cacheLookup fetches the entry under key, or reports a miss. The entry is
// checked against its trailer (state.Cache drops a corrupt one and reports
// a miss) and its DPF2 bytes are returned as read, never decoded.
func (e *Engine) cacheLookup(key string) (EncodedResult, bool) {
	payload, ok := e.cache.Get(key)
	if !ok {
		return EncodedResult{}, false
	}
	rd := bytes.NewReader(payload)
	dec := state.NewDecoder(rd)
	var r EncodedResult
	r.Fitness = dec.F64()
	r.FitnessKind = FitnessKind(dec.U64())
	r.Iters = int(dec.U64())
	r.PreprocessedBytes = dec.I64()
	if dec.Err() != nil {
		return EncodedResult{}, false
	}
	r.DPF2 = payload[len(payload)-rd.Len():]
	return r, true
}

// cacheStore persists an encoded result. Best-effort: a full disk or
// unwritable cache directory must not fail the decomposition that produced
// the result, so the error is dropped (the next lookup simply misses).
func (e *Engine) cacheStore(key string, r EncodedResult) {
	_ = e.cache.Put(key, func(w io.Writer) error {
		enc := state.NewEncoder(w)
		enc.F64(r.Fitness)
		enc.U64(uint64(r.FitnessKind))
		enc.U64(uint64(r.Iters))
		enc.I64(r.PreprocessedBytes)
		enc.Bytes(r.DPF2)
		return enc.Err()
	})
}
