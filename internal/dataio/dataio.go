// Package dataio persists irregular tensors and PARAFAC2 factorizations.
//
// The binary format is a small custom container (magic + version + shape
// table + little-endian float64 payload) rather than encoding/gob: tensors
// are large, flat float64 arrays, and a fixed layout reads and writes at
// memory bandwidth, stays stable across Go versions, and is easy to parse
// from other languages.
//
// Layout, in internal/state's encoding (little-endian 64-bit words; floats
// as IEEE-754 bit patterns; see state.Encoder):
//
//	"DPT2" | version=1 | K | J | I_1..I_K | slice_1 .. slice_K     (tensor)
//	"DPF2" | version=2 | qform | K | J | R | I_1..I_K |
//	       H (R·R) | V (J·R) | S (K·R) | Q payload                 (result)
//
// The result's Q payload depends on qform: qformDense (0) stores the dense
// Q_k (I_k·R each); qformFactored (1) stores the factored form DPar2 results
// carry — Z_1..Z_K, P_1..P_K (R·R each), then A_1..A_K (I_k·R each) with
// Q_k = A_k Z_k P_kᵀ — preserving laziness (and the smaller A-plus-R×R
// footprint) across a save/load. Version-1 result files (the pre-factored
// dense layout, without the qform field) are still read.
//
// Both writers append a sha256 checksum trailer (see internal/state) after
// the payload, and both readers verify it: silent corruption surfaces as a
// *CorruptError instead of garbage factors. Files written before the trailer
// existed — payload ending exactly at EOF — are still accepted. SaveTensor
// and SaveResult replace their target atomically (write-temp, fsync, rename),
// so a crash mid-save never leaves a truncated file behind; see
// docs/DURABILITY.md for the full contract.
package dataio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/state"
	"repro/internal/tensor"
)

const (
	tensorMagic   = "DPT2"
	resultMagic   = "DPF2"
	tensorVersion = 1
	// resultVersion 2 added the qform field and the factored-Q payload;
	// ReadResult still accepts version-1 (dense-only) files.
	resultVersion = 2

	qformDense    = 0
	qformFactored = 1
)

// CorruptError reports a payload that could not be decoded: truncated,
// bit-flipped, failing its checksum, or structurally inconsistent. All decode
// failures from ReadTensor/ReadResult (and the Load* wrappers) are
// *CorruptError; errors.Is(err, state.ErrChecksum) additionally identifies
// checksum-trailer mismatches.
type CorruptError struct {
	What string // which file kind / field was being decoded
	Err  error  // underlying cause, possibly nil
}

func (e *CorruptError) Error() string {
	if e.Err == nil {
		return "dataio: corrupt " + e.What
	}
	return "dataio: corrupt " + e.What + ": " + e.Err.Error()
}

func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(what string, err error) error {
	return &CorruptError{What: what, Err: err}
}

func corruptf(format string, args ...any) error {
	return &CorruptError{What: fmt.Sprintf(format, args...)}
}

// WriteTensor serializes t to w, followed by a checksum trailer.
func WriteTensor(w io.Writer, t *tensor.Irregular) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	enc := state.NewEncoder(sw)
	enc.Bytes([]byte(tensorMagic))
	enc.U64(tensorVersion)
	enc.U64(uint64(t.K()))
	enc.U64(uint64(t.J))
	for _, s := range t.Slices {
		enc.U64(uint64(s.Rows))
	}
	for _, s := range t.Slices {
		enc.Floats(s.Data)
	}
	return finish(enc, sw, bw)
}

// ReadTensor deserializes a tensor written by WriteTensor, verifying the
// checksum trailer when present (legacy files without one are accepted).
// Decode failures are reported as *CorruptError.
func ReadTensor(r io.Reader) (*tensor.Irregular, error) {
	sr := state.NewSumReader(bufio.NewReaderSize(r, 1<<20))
	dec := state.NewDecoder(sr)
	dec.Magic(tensorMagic)
	if v := dec.U64(); dec.Err() == nil && v != tensorVersion {
		return nil, corruptf("tensor: unsupported version %d", v)
	}
	k, j := dec.Dim(), dec.Dim()
	rows := dec.Dims(k)
	if err := dec.Err(); err != nil {
		return nil, corrupt("tensor header", err)
	}
	slices := make([]*mat.Dense, k)
	for i := range slices {
		slices[i] = decodeMatrix(dec, rows[i], j)
	}
	if err := dec.Err(); err != nil {
		return nil, corrupt("tensor slice payload", err)
	}
	if err := verifyTrailer(sr, "tensor"); err != nil {
		return nil, err
	}
	t, err := tensor.NewIrregular(slices)
	if err != nil {
		return nil, corrupt("tensor", err)
	}
	return t, nil
}

// SaveTensor writes t to the named file atomically: the payload lands in a
// temp file that is fsynced and renamed over path, so a crash mid-save leaves
// the previous file (or no file) intact, never a truncated one.
func SaveTensor(path string, t *tensor.Irregular) error {
	return state.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteTensor(w, t)
	})
}

// LoadTensor reads a tensor from the named file.
func LoadTensor(path string) (*tensor.Irregular, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTensor(f)
}

// WriteResult serializes the factor matrices of a decomposition, followed by
// a checksum trailer. A factored result (DPar2's lazy Q_k = A_k Z_k P_kᵀ) is
// written in factored form — the compact representation round-trips without
// ever materializing the dense slices; eager results are written dense.
func WriteResult(w io.Writer, res *parafac2.Result) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	enc := state.NewEncoder(sw)
	k := res.K()
	a, z, p, factored := res.FactoredQ()
	qform := uint64(qformDense)
	if factored {
		qform = qformFactored
	}
	enc.Bytes([]byte(resultMagic))
	for _, v := range []uint64{resultVersion, qform, uint64(k), uint64(res.V.Rows), uint64(res.H.Rows)} {
		enc.U64(v)
	}
	for i := 0; i < k; i++ {
		enc.U64(uint64(res.SliceRows(i)))
	}
	enc.Floats(res.H.Data)
	enc.Floats(res.V.Data)
	for _, s := range res.S {
		enc.Floats(s)
	}
	if factored {
		for _, ms := range [][]*mat.Dense{z, p, a} {
			for _, m := range ms {
				enc.Floats(m.Data)
			}
		}
	} else {
		for i := 0; i < k; i++ {
			enc.Floats(res.Qk(i).Data)
		}
	}
	return finish(enc, sw, bw)
}

// ReadResult deserializes factor matrices written by WriteResult, verifying
// the checksum trailer when present (legacy files without one are accepted).
// Only the factors are restored (timings and fitness are run artifacts, not
// state — FitnessKind on a loaded result is FitnessUnset). A factored payload
// is restored in factored form: the loaded result materializes Q_k lazily,
// exactly like the result it was saved from. Decode failures are reported as
// *CorruptError.
func ReadResult(r io.Reader) (*parafac2.Result, error) {
	sr := state.NewSumReader(bufio.NewReaderSize(r, 1<<20))
	dec := state.NewDecoder(sr)
	dec.Magic(resultMagic)
	qform := uint64(qformDense)
	switch ver := dec.U64(); {
	case dec.Err() != nil, ver == 1:
		// Version 1 is the pre-factored layout: no qform field, dense
		// payload.
	case ver == resultVersion:
		qform = dec.U64()
		if dec.Err() == nil && qform != qformDense && qform != qformFactored {
			return nil, corruptf("result: unknown Q form %d", qform)
		}
	default:
		return nil, corruptf("result: unsupported version %d", ver)
	}
	k, j, rank := dec.Dim(), dec.Dim(), dec.Dim()
	rows := dec.Dims(k)
	if err := dec.Err(); err != nil {
		return nil, corrupt("result header", err)
	}
	res := &parafac2.Result{}
	res.H = decodeMatrix(dec, rank, rank)
	res.V = decodeMatrix(dec, j, rank)
	res.S = make([][]float64, k)
	for i := range res.S {
		res.S[i] = dec.Floats(1, rank)
	}
	blocks := func(heights func(i int) int) []*mat.Dense {
		ms := make([]*mat.Dense, k)
		for i := range ms {
			ms[i] = decodeMatrix(dec, heights(i), rank)
		}
		return ms
	}
	square := func(int) int { return rank }
	sliceRows := func(i int) int { return rows[i] }
	if qform == qformFactored {
		z := blocks(square)
		p := blocks(square)
		res.SetFactoredQ(blocks(sliceRows), z, p)
	} else {
		res.SetQ(blocks(sliceRows))
	}
	if err := dec.Err(); err != nil {
		return nil, corrupt("result payload", err)
	}
	if err := verifyTrailer(sr, "result"); err != nil {
		return nil, err
	}
	return res, nil
}

// SaveResult writes the factorization to the named file atomically (see
// SaveTensor for the crash-safety contract).
func SaveResult(path string, res *parafac2.Result) error {
	return state.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteResult(w, res)
	})
}

// finish closes an encoded payload: the encoder's first error, else the
// checksum trailer, then the flush.
func finish(enc *state.Encoder, sw *state.SumWriter, bw *bufio.Writer) error {
	if err := enc.Err(); err != nil {
		return err
	}
	if err := sw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeMatrix reads a rows×cols block, or returns nil once dec has failed.
func decodeMatrix(dec *state.Decoder, rows, cols int) *mat.Dense {
	data := dec.Floats(rows, cols)
	if data == nil {
		return nil
	}
	return mat.NewFromData(rows, cols, data)
}

// verifyTrailer checks the checksum trailer that follows the payload.
// A cleanly absent trailer (state.ErrNoTrailer) means a legacy pre-checksum
// file and is accepted; anything else wraps into a *CorruptError.
func verifyTrailer(sr *state.SumReader, what string) error {
	switch err := sr.VerifyTrailer(); {
	case err == nil, errors.Is(err, state.ErrNoTrailer):
		return nil
	default:
		return corrupt(what+" checksum", err)
	}
}
