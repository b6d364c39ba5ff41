package parafac2

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/state"
)

// Stream checkpoint format (versioned, little-endian, sha256-trailed):
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
// Floats are IEEE-754 bit patterns (Float64bits), so Tol/Ridge/fitness and
// every factor value round-trip bit-exactly; the RNG state round-trips via
// rng.State. The result's A_k bases are NOT stored twice: they are the
// first kRes blocks of the compressed A (dpar2Iterate installs exactly that
// prefix), so RestoreStream rewires the factored Q onto the restored
// compressed bases. Timings and the convergence trace are run artifacts, not
// state, and are not checkpointed.
//
// What is deliberately absent: Threads, Pool, Progress, and TrackConvergence.
// Those are runtime bindings of the process, not stream state — RestoreStream
// takes them from the caller's Config, and they do not affect the computed
// bits (kernels are deterministic at any pool width).

const (
	checkpointMagic   = "DPC2"
	checkpointVersion = 1

	// ckptMaxDim bounds every dimension in a checkpoint header; combined
	// with incremental float reads it keeps adversarial headers from
	// reserving absurd buffers.
	ckptMaxDim = 1 << 32
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
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	cw := &ckptWriter{w: sw}

	cw.bytes([]byte(checkpointMagic))
	cw.u64(checkpointVersion)

	// Config (deterministic knobs only — see the format comment).
	cfg := s.cfg
	cw.u64(uint64(cfg.Rank))
	cw.u64(uint64(cfg.MaxIters))
	cw.f64(cfg.Tol)
	cw.u64(cfg.Seed)
	cw.u64(uint64(cfg.Oversample))
	cw.u64(uint64(cfg.PowerIters))
	cw.i64(int64(cfg.ShardRows))
	cw.f64(cfg.Ridge)
	cw.bool(cfg.NonnegativeS)

	// Stream position and RNG.
	cw.u64(uint64(s.absorbed))
	cw.i64(int64(s.RefreshIters))
	st := s.g.State()
	for _, word := range st.S {
		cw.u64(word)
	}
	cw.bool(st.HaveSpare)
	cw.f64(st.Spare)

	// Compressed representation.
	c := s.comp
	cw.u64(uint64(c.J))
	cw.u64(uint64(len(c.A)))
	for _, a := range c.A {
		cw.u64(uint64(a.Rows))
	}
	for _, a := range c.A {
		cw.floats(a.Data)
	}
	cw.floats(c.D.Data)
	cw.floats(c.E)
	for _, f := range c.F {
		cw.floats(f.Data)
	}

	// Result.
	res := s.result
	if res == nil {
		cw.bool(false)
	} else {
		a, z, p, ok := res.FactoredQ()
		if !ok || !res.Factored() {
			return fmt.Errorf("parafac2: checkpoint requires a factored stream result")
		}
		kRes := len(a)
		if kRes > len(c.A) {
			return fmt.Errorf("parafac2: stream result covers %d slices but compressed holds %d", kRes, len(c.A))
		}
		cw.bool(true)
		cw.u64(uint64(kRes))
		cw.u64(uint64(res.Iters))
		cw.f64(res.Fitness)
		cw.u64(uint64(res.FitnessKind))
		cw.i64(res.PreprocessedBytes)
		cw.floats(res.H.Data)
		cw.floats(res.V.Data)
		for i := 0; i < kRes; i++ {
			cw.floats(res.S[i])
		}
		for i := 0; i < kRes; i++ {
			cw.floats(z[i].Data)
		}
		for i := 0; i < kRes; i++ {
			cw.floats(p[i].Data)
		}
	}
	if cw.err != nil {
		return cw.err
	}
	if err := sw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// RestoreStream reconstructs a stream from a Checkpoint payload. Every
// deterministic knob (rank, iteration budget, tolerances, seeds, sketch
// parameters) comes from the checkpoint; only the runtime bindings —
// Threads, Pool, Progress, TrackConvergence — are taken from cfg. The
// restored stream's next AbsorbCtx is bit-identical to the same AbsorbCtx on
// the stream that wrote the checkpoint. The checksum trailer is mandatory here
// (unlike dataio's legacy files): any decode failure reports ErrCheckpoint.
func RestoreStream(r io.Reader, cfg Config) (*StreamingDPar2, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	sr := state.NewSumReader(br)
	cr := &ckptReader{r: sr}

	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(sr, magic); err != nil {
		return nil, ckptErrf("short read on magic: %v", err)
	}
	if string(magic) != checkpointMagic {
		return nil, ckptErrf("bad magic %q", magic)
	}
	if v := cr.u64(); cr.err == nil && v != checkpointVersion {
		return nil, ckptErrf("unsupported version %d", v)
	}

	stored := Config{
		Rank:         int(cr.u64()),
		MaxIters:     int(cr.u64()),
		Tol:          cr.f64(),
		Seed:         cr.u64(),
		Oversample:   int(cr.u64()),
		PowerIters:   int(cr.u64()),
		ShardRows:    int(cr.i64()),
		Ridge:        cr.f64(),
		NonnegativeS: cr.bool(),
	}
	// Runtime bindings from the caller.
	stored.Threads = cfg.Threads
	stored.Pool = cfg.Pool
	stored.Progress = cfg.Progress
	stored.TrackConvergence = cfg.TrackConvergence

	absorbed := int(cr.u64())
	refreshIters := int(cr.i64())
	var rngState rng.State
	for i := range rngState.S {
		rngState.S[i] = cr.u64()
	}
	rngState.HaveSpare = cr.bool()
	rngState.Spare = cr.f64()
	if cr.err != nil {
		return nil, cr.err
	}
	if stored.Rank <= 0 || uint64(stored.Rank) > ckptMaxDim || stored.MaxIters <= 0 {
		return nil, ckptErrf("config (rank=%d, maxIters=%d)", stored.Rank, stored.MaxIters)
	}
	rank := stored.Rank

	// Compressed representation.
	j := int(cr.u64())
	k := int(cr.u64())
	if cr.err != nil {
		return nil, cr.err
	}
	if j < rank || uint64(j) > ckptMaxDim || k <= 0 || uint64(k) > ckptMaxDim {
		return nil, ckptErrf("compressed shape (J=%d, K=%d)", j, k)
	}
	if absorbed != k {
		return nil, ckptErrf("absorb count %d does not match %d compressed slices", absorbed, k)
	}
	rows := make([]int, 0, min(k, 1<<16))
	for i := 0; i < k; i++ {
		ik := int(cr.u64())
		if cr.err != nil {
			return nil, cr.err
		}
		if ik < rank || uint64(ik) > ckptMaxDim {
			return nil, ckptErrf("slice height %d", ik)
		}
		rows = append(rows, ik)
	}
	comp := &Compressed{J: j, Rank: rank}
	comp.A = make([]*mat.Dense, k)
	for i := range comp.A {
		comp.A[i] = cr.matrix(rows[i], rank)
	}
	comp.D = cr.matrix(j, rank)
	comp.E = cr.floats(rank)
	comp.F = make([]*mat.Dense, k)
	for i := range comp.F {
		comp.F[i] = cr.matrix(rank, rank)
	}

	// Result.
	var res *Result
	if hasRes := cr.bool(); cr.err == nil && hasRes {
		kRes := int(cr.u64())
		if cr.err != nil {
			return nil, cr.err
		}
		if kRes <= 0 || kRes > k {
			return nil, ckptErrf("result covers %d of %d slices", kRes, k)
		}
		res = &Result{
			Iters:             int(cr.u64()),
			Fitness:           cr.f64(),
			FitnessKind:       FitnessKind(cr.u64()),
			PreprocessedBytes: cr.i64(),
		}
		res.H = cr.matrix(rank, rank)
		res.V = cr.matrix(j, rank)
		res.S = make([][]float64, kRes)
		for i := range res.S {
			res.S[i] = cr.floats(rank)
		}
		z := make([]*mat.Dense, kRes)
		for i := range z {
			z[i] = cr.matrix(rank, rank)
		}
		p := make([]*mat.Dense, kRes)
		for i := range p {
			p[i] = cr.matrix(rank, rank)
		}
		if cr.err != nil {
			return nil, cr.err
		}
		// The factored Q's bases are the first kRes compressed bases — the
		// same sharing dpar2Iterate sets up, re-established on the restored
		// comp.A so the stream and its result keep one copy of each A_k.
		res.SetFactoredQ(append([]*mat.Dense(nil), comp.A[:kRes]...), z, p)
	}
	if cr.err != nil {
		return nil, cr.err
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

// --- encoding helpers (sticky-error, little-endian) -------------------------

type ckptWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (c *ckptWriter) bytes(b []byte) {
	if c.err != nil {
		return
	}
	_, c.err = c.w.Write(b)
}

func (c *ckptWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:], v)
	c.bytes(c.buf[:])
}

func (c *ckptWriter) i64(v int64)   { c.u64(uint64(v)) }
func (c *ckptWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

func (c *ckptWriter) bool(v bool) {
	if v {
		c.u64(1)
	} else {
		c.u64(0)
	}
}

const ckptFloatChunk = 1 << 16

func (c *ckptWriter) floats(vs []float64) {
	if c.err != nil {
		return
	}
	buf := make([]byte, 8*min(len(vs), ckptFloatChunk))
	for off := 0; off < len(vs) && c.err == nil; off += ckptFloatChunk {
		end := min(off+ckptFloatChunk, len(vs))
		n := end - off
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vs[off+i]))
		}
		c.bytes(buf[:n*8])
	}
}

type ckptReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (c *ckptReader) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if _, err := io.ReadFull(c.r, c.buf[:]); err != nil {
		c.err = ckptErrf("short read: %v", err)
		return 0
	}
	return binary.LittleEndian.Uint64(c.buf[:])
}

func (c *ckptReader) i64() int64   { return int64(c.u64()) }
func (c *ckptReader) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *ckptReader) bool() bool {
	switch c.u64() {
	case 0:
		return false
	case 1:
		return true
	default:
		if c.err == nil {
			c.err = ckptErrf("bad boolean")
		}
		return false
	}
}

// floats reads n float64s, allocating incrementally (append doubling) so a
// corrupt header claiming a huge count against a truncated stream fails after
// at most ~2× the bytes actually present.
func (c *ckptReader) floats(n int) []float64 {
	if c.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, ckptFloatChunk))
	buf := make([]byte, 8*min(n, ckptFloatChunk))
	for len(out) < n {
		cnt := min(n-len(out), ckptFloatChunk)
		if _, err := io.ReadFull(c.r, buf[:cnt*8]); err != nil {
			c.err = ckptErrf("short read: %v", err)
			return nil
		}
		for i := 0; i < cnt; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out
}

// matrix reads a rows×cols float payload. Dimensions must already be
// validated by the caller; the product guard here is a belt-and-braces check
// against overflow.
func (c *ckptReader) matrix(rows, cols int) *mat.Dense {
	if c.err != nil {
		return nil
	}
	if rows <= 0 || cols <= 0 || rows > (1<<40)/cols {
		c.err = ckptErrf("matrix shape %dx%d", rows, cols)
		return nil
	}
	data := c.floats(rows * cols)
	if c.err != nil {
		return nil
	}
	return mat.NewFromData(rows, cols, data)
}
