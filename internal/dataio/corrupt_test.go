package dataio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/parafac2"
	"repro/internal/state"
)

// mustCorrupt asserts that decoding failed with a *CorruptError.
func mustCorrupt(t *testing.T, err error, ctx string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected error, got nil", ctx)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: expected *CorruptError, got %T: %v", ctx, err, err)
	}
}

func encodeSampleTensor(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTensor(&buf, sampleTensor()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSampleResult(t *testing.T) []byte {
	t.Helper()
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 5
	res, err := parafac2.DPar2Ctx(context.Background(), sampleTensor(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTensorTruncatedAtEveryOffset cuts a valid checksummed tensor file
// at every byte offset and asserts each prefix is rejected with a
// *CorruptError — a crash that somehow bypassed the atomic writer can never
// be misread as a shorter valid tensor.
// The one offset NOT tested is len-TrailerSize: a file cut exactly at the
// payload/trailer boundary is byte-for-byte a legacy pre-checksum file and is
// accepted by design (the atomic writer makes that torn state unreachable on
// our own files).
func TestReadTensorTruncatedAtEveryOffset(t *testing.T) {
	valid := encodeSampleTensor(t)
	legacyBoundary := len(valid) - state.TrailerSize
	for cut := 0; cut < len(valid); cut++ {
		if cut == legacyBoundary {
			continue
		}
		_, err := ReadTensor(bytes.NewReader(valid[:cut]))
		mustCorrupt(t, err, "truncated tensor")
	}
}

// TestReadResultTruncatedAtEveryOffset is the result-file counterpart.
func TestReadResultTruncatedAtEveryOffset(t *testing.T) {
	valid := encodeSampleResult(t)
	legacyBoundary := len(valid) - state.TrailerSize
	for cut := 0; cut < len(valid); cut++ {
		if cut == legacyBoundary {
			continue
		}
		_, err := ReadResult(bytes.NewReader(valid[:cut]))
		mustCorrupt(t, err, "truncated result")
	}
}

// TestChecksumCatchesBitFlips flips every single byte of valid payloads and
// asserts the flip is always detected. Without the trailer, flips in the
// float payload would silently corrupt factor values.
func TestChecksumCatchesBitFlips(t *testing.T) {
	tensorBytes := encodeSampleTensor(t)
	resultBytes := encodeSampleResult(t)
	for name, tc := range map[string]struct {
		valid []byte
		read  func([]byte) error
	}{
		"tensor": {tensorBytes, func(b []byte) error {
			_, err := ReadTensor(bytes.NewReader(b))
			return err
		}},
		"result": {resultBytes, func(b []byte) error {
			_, err := ReadResult(bytes.NewReader(b))
			return err
		}},
	} {
		t.Run(name, func(t *testing.T) {
			if err := tc.read(tc.valid); err != nil {
				t.Fatalf("pristine payload rejected: %v", err)
			}
			for i := 0; i < len(tc.valid); i++ {
				mut := append([]byte(nil), tc.valid...)
				mut[i] ^= 0x01
				if err := tc.read(mut); err == nil {
					t.Fatalf("bit flip at offset %d went undetected", i)
				}
			}
		})
	}
}

func TestCorruptErrorExposesChecksumCause(t *testing.T) {
	valid := encodeSampleTensor(t)
	mut := append([]byte(nil), valid...)
	mut[len(mut)-1] ^= 0xff // damage the digest itself
	_, err := ReadTensor(bytes.NewReader(mut))
	mustCorrupt(t, err, "digest flip")
	if !errors.Is(err, state.ErrChecksum) {
		t.Fatalf("checksum failure not identifiable via state.ErrChecksum: %v", err)
	}
}

// TestAdversarialHeaderNoHugeAlloc feeds headers that claim absurd shapes
// with almost no body and asserts the reader fails fast (bounded allocation,
// typed error) rather than attempting multi-gigabyte buffers.
func TestAdversarialHeaderNoHugeAlloc(t *testing.T) {
	u64 := func(vals ...uint64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], v)
		}
		return b
	}
	cases := map[string][]byte{
		// K claims 2^31 slices; shape table is absent.
		"tensor huge K": append([]byte(tensorMagic), u64(1, 1<<31, 4)...),
		// One slice claiming 2^31 rows, no payload behind it.
		"tensor huge rows": append([]byte(tensorMagic), u64(1, 1, 4, 1<<31)...),
		// rows*cols products that would overflow or exceed maxElems.
		"tensor overflow product": append([]byte(tensorMagic), u64(1, 1, 1<<32, 1<<32)...),
		"result huge rank":        append([]byte(resultMagic), u64(2, 0, 1, 4, 1<<31, 8)...),
		"result huge K":           append([]byte(resultMagic), u64(2, 0, 1<<31, 4, 3)...),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				var err error
				if bytes.HasPrefix(payload, []byte(tensorMagic)) {
					_, err = ReadTensor(bytes.NewReader(payload))
				} else {
					_, err = ReadResult(bytes.NewReader(payload))
				}
				done <- err
			}()
			select {
			case err := <-done:
				mustCorrupt(t, err, name)
			case <-time.After(10 * time.Second):
				t.Fatal("reader hung (or thrashed allocating) on adversarial header")
			}
		})
	}
}

// FuzzReadTensor mutates valid tensor payloads: the reader must never panic,
// and every rejection must be a typed *CorruptError.
func FuzzReadTensor(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTensor(&buf, sampleTensor()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte(tensorMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ReadTensor(bytes.NewReader(data))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("non-typed decode error %T: %v", err, err)
			}
		}
	})
}

// FuzzReadResult is the result-file counterpart of FuzzReadTensor.
func FuzzReadResult(f *testing.F) {
	cfg := parafac2.DefaultConfig()
	cfg.Rank = 3
	cfg.MaxIters = 5
	res, err := parafac2.DPar2Ctx(context.Background(), sampleTensor(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/3])
	f.Add([]byte(resultMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("non-typed decode error %T: %v", err, err)
			}
		}
	})
}
