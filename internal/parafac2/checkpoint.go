package parafac2

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/state"
)

// Stream checkpoint format (versioned, sha256-trailed, in internal/state's
// word encoding — see state.Encoder):
//
//	"DPC2" | version=1 |
//	config: R, MaxIters, Tol, Seed, Oversample, PowerIters, ShardRows,
//	        Ridge, NonnegativeS |
//	stream: absorbed, RefreshIters, RNG state (4 words + Box-Muller spare) |
//	compressed: J, K, I_1..I_K | A_1..A_K | D | E | F_1..F_K |
//	result: present?, kRes, Iters, Fitness, FitnessKind, PreprocessedBytes |
//	        H | V | S_1..S_kRes | Z_1..Z_kRes | P_1..P_kRes |
//	sha256 trailer (mandatory — see internal/state)
//
// Floats are IEEE-754 bit patterns, so Tol/Ridge/fitness and every factor
// value round-trip bit-exactly; the RNG state round-trips via
// rng.State. The result's A_k bases are NOT stored twice: they are the
// first kRes blocks of the compressed A (dpar2Iterate installs exactly that
// prefix), so RestoreStream rewires the factored Q onto the restored
// compressed bases. Timings are run artifacts, not state, and are not
// checkpointed.
//
// What is deliberately absent: Threads, Pool, and Progress. Those are
// runtime bindings of the process, not stream state — RestoreStream
// takes them from the caller's Config, and they do not affect the computed
// bits (kernels are deterministic at any pool width).

const (
	checkpointMagic   = "DPC2"
	checkpointVersion = 1
)

// ErrCheckpoint reports a checkpoint payload that could not be decoded —
// truncated, corrupt, or structurally inconsistent. errors.Is(err,
// ErrCheckpoint) identifies all RestoreStream decode failures.
var ErrCheckpoint = errors.New("parafac2: corrupt or invalid checkpoint")

func ckptErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpoint, fmt.Sprintf(format, args...))
}

// Checkpoint serializes the complete stream state — configuration, RNG,
// compressed representation, factors, and absorb count — such that a stream
// restored with RestoreStream continues bit-identically:
// restore-then-AbsorbCtx produces the same bytes as an uninterrupted stream
// absorbing the same batches. The payload ends with a sha256 trailer; pair with
// state.WriteFileAtomic for a crash-safe on-disk checkpoint.
func (s *StreamingDPar2) Checkpoint(w io.Writer) error {
	c := s.comp
	res := s.result
	var a, z, p []*mat.Dense
	if res != nil {
		var ok bool
		a, z, p, ok = res.FactoredQ()
		if !ok {
			return fmt.Errorf("parafac2: checkpoint requires a factored stream result")
		}
		if len(a) > len(c.A) {
			return fmt.Errorf("parafac2: stream result covers %d slices but compressed holds %d", len(a), len(c.A))
		}
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	enc := state.NewEncoder(sw)

	enc.Bytes([]byte(checkpointMagic))
	enc.U64(checkpointVersion)

	// Config (deterministic knobs only — see the format comment).
	cfg := s.cfg
	enc.U64(uint64(cfg.Rank))
	enc.U64(uint64(cfg.MaxIters))
	enc.F64(cfg.Tol)
	enc.U64(cfg.Seed)
	enc.U64(uint64(cfg.Oversample))
	enc.U64(uint64(cfg.PowerIters))
	enc.I64(int64(cfg.ShardRows))
	enc.F64(cfg.Ridge)
	enc.Bool(cfg.NonnegativeS)

	// Stream position and RNG.
	enc.U64(uint64(s.absorbed))
	enc.I64(int64(s.RefreshIters))
	st := s.g.State()
	for _, word := range st.S {
		enc.U64(word)
	}
	enc.Bool(st.HaveSpare)
	enc.F64(st.Spare)

	// Compressed representation.
	enc.U64(uint64(c.J))
	enc.U64(uint64(len(c.A)))
	for _, m := range c.A {
		enc.U64(uint64(m.Rows))
	}
	for _, m := range c.A {
		enc.Floats(m.Data)
	}
	enc.Floats(c.D.Data)
	enc.Floats(c.E)
	for _, f := range c.F {
		enc.Floats(f.Data)
	}

	// Result.
	enc.Bool(res != nil)
	if res != nil {
		kRes := len(a)
		enc.U64(uint64(kRes))
		enc.U64(uint64(res.Iters))
		enc.F64(res.Fitness)
		enc.U64(uint64(res.FitnessKind))
		enc.I64(res.PreprocessedBytes)
		enc.Floats(res.H.Data)
		enc.Floats(res.V.Data)
		for _, sk := range res.S[:kRes] {
			enc.Floats(sk)
		}
		for _, ms := range [][]*mat.Dense{z, p} {
			for _, m := range ms {
				enc.Floats(m.Data)
			}
		}
	}
	if err := enc.Err(); err != nil {
		return err
	}
	if err := sw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// RestoreStream reconstructs a stream from a Checkpoint payload. Every
// deterministic knob (rank, iteration budget, tolerances, seeds, sketch
// parameters) comes from the checkpoint; only the runtime bindings —
// Threads, Pool, Progress — are taken from cfg. The restored stream's next
// AbsorbCtx is bit-identical to the same AbsorbCtx on the stream that wrote
// the checkpoint. The checksum trailer is mandatory here (unlike dataio's
// legacy files): any decode failure, and any stored knob CheckKnobs
// rejects, reports ErrCheckpoint.
func RestoreStream(r io.Reader, cfg Config) (*StreamingDPar2, error) {
	sr := state.NewSumReader(bufio.NewReaderSize(r, 1<<20))
	dec := state.NewDecoder(sr)
	dec.Magic(checkpointMagic)
	if v := dec.U64(); dec.Err() == nil && v != checkpointVersion {
		return nil, ckptErrf("unsupported version %d", v)
	}

	stored := Config{
		Rank:         int(dec.U64()),
		MaxIters:     int(dec.U64()),
		Tol:          dec.F64(),
		Seed:         dec.U64(),
		Oversample:   int(dec.U64()),
		PowerIters:   int(dec.U64()),
		ShardRows:    int(dec.I64()),
		Ridge:        dec.F64(),
		NonnegativeS: dec.Bool(),
		// Runtime bindings from the caller.
		Threads:  cfg.Threads,
		Pool:     cfg.Pool,
		Progress: cfg.Progress,
	}
	absorbed := int(dec.U64())
	refreshIters := int(dec.I64())
	var rngState rng.State
	for i := range rngState.S {
		rngState.S[i] = dec.U64()
	}
	rngState.HaveSpare = dec.Bool()
	rngState.Spare = dec.F64()
	if err := dec.Err(); err != nil {
		return nil, ckptErrf("%v", err)
	}
	if err := stored.CheckKnobs(); err != nil {
		return nil, ckptErrf("config: %v", err)
	}
	rank := stored.Rank

	// Compressed representation.
	j, k := dec.Dim(), dec.Dim()
	rows := dec.Dims(k)
	if err := dec.Err(); err != nil {
		return nil, ckptErrf("compressed shape: %v", err)
	}
	if j < rank || absorbed != k {
		return nil, ckptErrf("compressed shape (J=%d, K=%d) for rank %d and %d absorbed slices", j, k, rank, absorbed)
	}
	for _, ik := range rows {
		if ik < rank {
			return nil, ckptErrf("slice height %d below rank %d", ik, rank)
		}
	}
	comp := &Compressed{J: j, Rank: rank}
	comp.A = make([]*mat.Dense, k)
	for i := range comp.A {
		comp.A[i] = decodeMatrix(dec, rows[i], rank)
	}
	comp.D = decodeMatrix(dec, j, rank)
	comp.E = dec.Floats(1, rank)
	comp.F = make([]*mat.Dense, k)
	for i := range comp.F {
		comp.F[i] = decodeMatrix(dec, rank, rank)
	}

	// Result.
	var res *Result
	if dec.Bool() {
		kRes := int(dec.U64())
		if err := dec.Err(); err == nil && (kRes <= 0 || kRes > k) {
			return nil, ckptErrf("result covers %d of %d slices", kRes, k)
		}
		res = &Result{
			Iters:             int(dec.U64()),
			Fitness:           dec.F64(),
			FitnessKind:       FitnessKind(dec.U64()),
			PreprocessedBytes: dec.I64(),
		}
		res.H = decodeMatrix(dec, rank, rank)
		res.V = decodeMatrix(dec, j, rank)
		res.S = make([][]float64, kRes)
		for i := range res.S {
			res.S[i] = dec.Floats(1, rank)
		}
		z := make([]*mat.Dense, kRes)
		for i := range z {
			z[i] = decodeMatrix(dec, rank, rank)
		}
		p := make([]*mat.Dense, kRes)
		for i := range p {
			p[i] = decodeMatrix(dec, rank, rank)
		}
		// The factored Q's bases are the first kRes compressed bases — the
		// same sharing dpar2Iterate sets up, re-established on the restored
		// comp.A so the stream and its result keep one copy of each A_k.
		res.SetFactoredQ(append([]*mat.Dense(nil), comp.A[:kRes]...), z, p)
	}
	if err := dec.Err(); err != nil {
		return nil, ckptErrf("%v", err)
	}
	if err := sr.VerifyTrailer(); err != nil {
		return nil, ckptErrf("checksum: %v", err)
	}

	g, err := rng.FromState(rngState)
	if err != nil {
		return nil, ckptErrf("rng: %v", err)
	}
	return &StreamingDPar2{
		cfg:          stored,
		g:            g,
		comp:         comp,
		result:       res,
		absorbed:     absorbed,
		RefreshIters: refreshIters,
	}, nil
}

// decodeMatrix reads a rows×cols block, or returns nil once dec has failed.
func decodeMatrix(dec *state.Decoder, rows, cols int) *mat.Dense {
	data := dec.Floats(rows, cols)
	if data == nil {
		return nil
	}
	return mat.NewFromData(rows, cols, data)
}
