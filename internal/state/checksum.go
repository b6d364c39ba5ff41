package state

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
)

// trailerMagic marks (and versions) the checksum trailer: "DXS" for DPar2
// checksummed state, "1" for the trailer format version. A future trailer
// layout bumps the digit; readers reject versions they do not know.
const trailerMagic = "DXS1"

// TrailerSize is the on-disk size of the checksum trailer: the 4-byte
// versioned magic followed by the 32-byte sha256 of every payload byte
// before it.
const TrailerSize = len(trailerMagic) + sha256.Size

// ErrNoTrailer is returned by VerifyTrailer when the stream ends cleanly
// with no trailer at all — a legacy file written before checksum framing.
// Callers that accept legacy files treat it as success; callers of strict
// formats (checkpoints, cache entries) treat it as corruption.
var ErrNoTrailer = errors.New("state: stream has no checksum trailer")

// ErrChecksum is the sentinel all checksum-verification failures wrap:
// errors.Is(err, ErrChecksum) is true for a mismatched digest, a mangled
// trailer, and an unknown trailer version.
var ErrChecksum = errors.New("state: content checksum mismatch")

// SumWriter hashes every byte written through it while passing the bytes to
// the underlying writer. Close the payload by calling WriteTrailer, which
// appends the versioned sha256 trailer (the trailer itself is not hashed).
type SumWriter struct {
	w io.Writer
	h hash.Hash
}

// NewSumWriter wraps w with sha256 content hashing.
func NewSumWriter(w io.Writer) *SumWriter {
	return &SumWriter{w: w, h: sha256.New()}
}

// Write implements io.Writer.
func (s *SumWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	// Hash exactly what reached the underlying writer, so a short write
	// cannot desynchronize the digest from the bytes on disk.
	s.h.Write(p[:n])
	return n, err
}

// WriteTrailer appends the checksum trailer for everything written so far to
// the underlying writer. The SumWriter must not be written to afterwards.
func (s *SumWriter) WriteTrailer() error {
	var buf [TrailerSize]byte
	copy(buf[:], trailerMagic)
	copy(buf[len(trailerMagic):], s.h.Sum(nil))
	if _, err := s.w.Write(buf[:]); err != nil {
		return err
	}
	return nil
}

// SumReader hashes every byte read through it. After consuming the payload,
// call VerifyTrailer to read the trailer from the underlying reader and check
// the digest.
type SumReader struct {
	r io.Reader
	h hash.Hash
}

// NewSumReader wraps r with sha256 content hashing. r should be the buffered
// reader the decoder would otherwise read from; the decoder reads payload
// bytes through the SumReader, and VerifyTrailer reads the trailer from r
// directly (unhashed).
func NewSumReader(r io.Reader) *SumReader {
	return &SumReader{r: r, h: sha256.New()}
}

// Read implements io.Reader.
func (s *SumReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.h.Write(p[:n])
	return n, err
}

// VerifyTrailer reads the checksum trailer that follows the payload and
// compares it against the digest of everything read so far. It returns
//
//   - nil when a well-formed trailer matches;
//   - ErrNoTrailer when the stream ends cleanly with no trailer byte at all
//     (a legacy, pre-checksum file);
//   - an error wrapping ErrChecksum when the trailer is truncated, carries an
//     unknown version, or its digest does not match the payload.
func (s *SumReader) VerifyTrailer() error {
	want := s.h.Sum(nil)
	var buf [TrailerSize]byte
	n, err := io.ReadFull(s.r, buf[:])
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return ErrNoTrailer
	}
	if err != nil {
		return fmt.Errorf("%w: truncated trailer (%d of %d bytes)", ErrChecksum, n, TrailerSize)
	}
	if string(buf[:len(trailerMagic)]) != trailerMagic {
		return fmt.Errorf("%w: bad trailer magic %q", ErrChecksum, buf[:len(trailerMagic)])
	}
	if !bytes.Equal(buf[len(trailerMagic):], want) {
		return fmt.Errorf("%w: payload digest does not match trailer", ErrChecksum)
	}
	return nil
}

// cutTrailer checks the checksum trailer that ends b against the sha256 of
// the bytes before it, in one pass, and returns those bytes: the payload.
// Its errors wrap ErrChecksum, as VerifyTrailer's do; a b too short to hold
// a trailer is one of them.
func cutTrailer(b []byte) ([]byte, error) {
	if len(b) < TrailerSize {
		return nil, fmt.Errorf("%w: truncated trailer (%d of %d bytes)", ErrChecksum, len(b), TrailerSize)
	}
	payload, tr := b[:len(b)-TrailerSize], b[len(b)-TrailerSize:]
	if string(tr[:len(trailerMagic)]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrChecksum, tr[:len(trailerMagic)])
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(tr[len(trailerMagic):], sum[:]) {
		return nil, fmt.Errorf("%w: payload digest does not match trailer", ErrChecksum)
	}
	return payload, nil
}
