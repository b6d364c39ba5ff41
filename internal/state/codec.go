package state

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Header limits: a Decoder rejects any size read from its input beyond these
// before allocating for it, so a corrupt or hostile header cannot reserve an
// absurd buffer.
const (
	// MaxDim bounds every dimension a header may declare.
	MaxDim = 1 << 32
	// MaxElems bounds the element count of one float array, keeping
	// rows·cols far from integer overflow.
	MaxElems = 1 << 40
)

// chunkWords is the most words Encoder.Floats hands to one Write and the
// most Decoder.Floats reads, and allocates for, in one step.
const chunkWords = 1 << 16

// Encoder writes the encoding every persisted format is built from:
// little-endian 64-bit words (integers, IEEE-754 float bit patterns,
// booleans as 0/1) and float arrays as runs of such words. Errors are
// sticky: after the first failed write every call is a no-op, and Err
// reports that first error.
type Encoder struct {
	w    io.Writer
	err  error
	word [8]byte
	buf  []byte
}

// NewEncoder returns an Encoder writing to w. It does no buffering of its
// own: pass a bufio.Writer when w is a file.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err reports the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

// Bytes writes p verbatim (a magic string, a length-framed part).
func (e *Encoder) Bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// U64 writes one word.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.word[:], v)
	e.Bytes(e.word[:])
}

// I64 writes v's two's-complement bits as one word.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 writes v's IEEE-754 bit pattern as one word, so every value — NaN
// payloads and negative zero included — round-trips bit-exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes true as 1 and false as 0.
func (e *Encoder) Bool(v bool) {
	var w uint64
	if v {
		w = 1
	}
	e.U64(w)
}

// Floats writes vs as consecutive F64 words, at most 64Ki of them per Write.
func (e *Encoder) Floats(vs []float64) {
	for len(vs) > 0 && e.err == nil {
		n := min(len(vs), chunkWords)
		e.buf = resize(e.buf, 8*n)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(e.buf[8*i:], math.Float64bits(v))
		}
		e.Bytes(e.buf)
		vs = vs[n:]
	}
}

// Decoder reads what an Encoder wrote. Errors are sticky: after the first
// short read or out-of-range value every call returns a zero value, and Err
// reports that first error. A caller checks Err before using a decoded size
// in arithmetic.
type Decoder struct {
	r    io.Reader
	err  error
	word [8]byte
	buf  []byte
}

// NewDecoder returns a Decoder reading from r. It does no buffering of its
// own: pass a bufio.Reader when r is a file.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Err reports the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) read(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("short read: %w", err)
		return false
	}
	return true
}

// Magic reads len(magic) bytes and fails unless they spell magic.
func (d *Decoder) Magic(magic string) {
	p := make([]byte, len(magic))
	if d.read(p) && string(p) != magic {
		d.fail("magic %q (want %q)", p, magic)
	}
}

// U64 reads one word.
func (d *Decoder) U64() uint64 {
	if !d.read(d.word[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(d.word[:])
}

// I64 reads one word as a two's-complement integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads one word as an IEEE-754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one word, failing unless it is 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U64()
	if v > 1 {
		d.fail("bad boolean %d", v)
	}
	return v == 1
}

// Dim reads one header dimension, failing unless it lies in [1, MaxDim].
func (d *Decoder) Dim() int {
	v := d.U64()
	if d.err == nil && (v == 0 || v > MaxDim) {
		d.fail("dimension %d outside [1, %d]", v, uint64(MaxDim))
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// Dims reads a table of n dimensions (see Dim). The table grows as words
// arrive, so a header claiming a huge n against a short stream fails after
// at most one chunk of over-allocation.
func (d *Decoder) Dims(n int) []int {
	out := make([]int, 0, min(n, chunkWords))
	for len(out) < n && d.err == nil {
		out = append(out, d.Dim())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Floats reads a rows×cols float array (row-major, as Encoder.Floats wrote
// it). rows and cols must lie in [1, MaxDim] and rows·cols within
// MaxElems. The array grows by at most 64Ki floats per read as data
// arrives, so a header claiming billions of elements against a short stream
// costs about twice the bytes actually present, not 8·rows·cols up front.
func (d *Decoder) Floats(rows, cols int) []float64 {
	if d.err != nil {
		return nil
	}
	if rows < 1 || cols < 1 || uint64(rows) > MaxDim || uint64(cols) > MaxDim ||
		uint64(rows) > MaxElems/uint64(cols) {
		d.fail("array shape %dx%d outside limits", rows, cols)
		return nil
	}
	n := rows * cols
	out := make([]float64, 0, min(n, chunkWords))
	for len(out) < n {
		cnt := min(n-len(out), chunkWords)
		d.buf = resize(d.buf, 8*cnt)
		if !d.read(d.buf) {
			return nil
		}
		for i := 0; i < cnt; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:])))
		}
	}
	return out
}

// resize returns buf resized to n bytes, reallocating — to at least double
// its capacity, up to one chunk — when it is too small.
func resize(buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, max(n, min(2*cap(buf), 8*chunkWords)))
	}
	return buf[:n]
}
