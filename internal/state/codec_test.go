package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestCodecRoundTrip: every word kind and a float array spanning several
// chunks decode to exactly what was encoded, bit patterns included, in the
// documented little-endian layout.
func TestCodecRoundTrip(t *testing.T) {
	floats := make([]float64, 2*chunkWords+3)
	for i := range floats {
		floats[i] = float64(i)/3 - 7
	}
	floats[1] = math.Copysign(0, -1)
	floats[2] = math.Float64frombits(0x7ff8_0000_0000_0abc)

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Bytes([]byte("MAGC"))
	enc.U64(1<<63 + 5)
	enc.I64(-2)
	enc.F64(math.Inf(-1))
	enc.Bool(true)
	enc.Bool(false)
	enc.U64(1)
	enc.U64(uint64(len(floats)))
	enc.Floats(floats)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint64(raw[4:]); got != 1<<63+5 {
		t.Fatalf("first word %#x is not little-endian", got)
	}
	if want := 4 + 8*(7+len(floats)); len(raw) != want {
		t.Fatalf("encoded %d bytes, want %d", len(raw), want)
	}

	dec := NewDecoder(bytes.NewReader(raw))
	dec.Magic("MAGC")
	u, i, f := dec.U64(), dec.I64(), dec.F64()
	b1, b2 := dec.Bool(), dec.Bool()
	rows, cols := dec.Dim(), dec.Dim()
	got := dec.Floats(rows, cols)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if u != 1<<63+5 || i != -2 || !math.IsInf(f, -1) || !b1 || b2 || rows != 1 {
		t.Fatalf("words decoded as %d %d %v %v %v %d", u, i, f, b1, b2, rows)
	}
	for k := range floats {
		if math.Float64bits(got[k]) != math.Float64bits(floats[k]) {
			t.Fatalf("float %d: bits %#x, want %#x", k, math.Float64bits(got[k]), math.Float64bits(floats[k]))
		}
	}
	if _, err := dec.r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatal("decoder left bytes unread")
	}
}

// countingWriter records the size of every Write it receives.
type countingWriter struct{ sizes []int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// TestEncoderFloatsChunked: a float array goes out in Writes of at most
// 64Ki floats, with no per-element call.
func TestEncoderFloatsChunked(t *testing.T) {
	var cw countingWriter
	NewEncoder(&cw).Floats(make([]float64, 2*chunkWords+1))
	want := []int{8 * chunkWords, 8 * chunkWords, 8}
	if len(cw.sizes) != len(want) {
		t.Fatalf("Write sizes %v, want %v", cw.sizes, want)
	}
	for i := range want {
		if cw.sizes[i] != want[i] {
			t.Fatalf("Write sizes %v, want %v", cw.sizes, want)
		}
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errors.New("disk full")
}

// TestCodecErrorsAreSticky: after the first failure, encoders stop writing
// and decoders return zero values, and Err keeps the first error.
func TestCodecErrorsAreSticky(t *testing.T) {
	fw := &failWriter{}
	enc := NewEncoder(fw)
	enc.U64(1)
	enc.Floats([]float64{1, 2})
	enc.Bool(true)
	if fw.calls != 1 || enc.Err() == nil || enc.Err().Error() != "disk full" {
		t.Fatalf("encoder: %d writes, err %v", fw.calls, enc.Err())
	}

	dec := NewDecoder(bytes.NewReader([]byte{2, 0, 0, 0, 0, 0, 0, 0, 9}))
	if dec.Bool() {
		t.Fatal("2 decoded as true")
	}
	first := dec.Err()
	if first == nil || !strings.Contains(first.Error(), "bad boolean") {
		t.Fatalf("bad boolean not reported: %v", first)
	}
	if dec.U64() != 0 || dec.Floats(1, 1) != nil || dec.Dims(2) != nil || dec.Err() != first {
		t.Fatal("decoder kept reading after its first error")
	}

	dec = NewDecoder(bytes.NewReader([]byte{1, 2, 3}))
	if dec.U64() != 0 || !errors.Is(dec.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short word: err %v", dec.Err())
	}
	dec = NewDecoder(strings.NewReader("NOPE"))
	if dec.Magic("DPT2"); dec.Err() == nil {
		t.Fatal("wrong magic accepted")
	}
}

// TestDecoderLimits: sizes outside the header limits fail before any
// allocation for them, and a huge claimed array against a short stream fails
// after reading what is there.
func TestDecoderLimits(t *testing.T) {
	word := func(v uint64) io.Reader {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return bytes.NewReader(b[:])
	}
	for _, v := range []uint64{0, MaxDim + 1, math.MaxUint64} {
		dec := NewDecoder(word(v))
		if dec.Dim() != 0 || dec.Err() == nil {
			t.Errorf("dimension %d accepted", v)
		}
	}
	if dec := NewDecoder(word(MaxDim)); dec.Dim() != MaxDim || dec.Err() != nil {
		t.Errorf("dimension MaxDim rejected: %v", dec.Err())
	}
	for _, shape := range [][2]int{{0, 1}, {1, -1}, {MaxDim + 1, 1}, {MaxDim, MaxDim}, {1 << 21, 1 << 20}} {
		dec := NewDecoder(bytes.NewReader(nil))
		if dec.Floats(shape[0], shape[1]) != nil || dec.Err() == nil || errors.Is(dec.Err(), io.EOF) {
			t.Errorf("shape %v: err %v, want a limit error before any read", shape, dec.Err())
		}
	}
	dec := NewDecoder(bytes.NewReader(make([]byte, 8*10)))
	if dec.Floats(1<<20, 1<<20) != nil || !errors.Is(dec.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("huge array over a short stream: err %v", dec.Err())
	}
	dec = NewDecoder(bytes.NewReader(make([]byte, 8*3)))
	if dec.Dims(1<<31) != nil || dec.Err() == nil {
		t.Fatal("huge dimension table over a short stream accepted")
	}
}
