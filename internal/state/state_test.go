package state

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.bin")
	payload := []byte("hello durable world")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("content mismatch: got %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected only the target file in dir, found %d entries", len(ents))
	}
}

// TestWriteFileAtomicCrashAtEveryOffset simulates a writer dying after every
// possible byte prefix of the payload and asserts the target file either
// keeps its previous complete content or (when it never existed) stays
// absent — never a truncated intermediate — and that no temp files leak.
func TestWriteFileAtomicCrashAtEveryOffset(t *testing.T) {
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyz-PAYLOAD-END")
	errBoom := errors.New("simulated crash")

	for _, pre := range []struct {
		name    string
		initial []byte // nil = target does not exist beforehand
	}{
		{"fresh", nil},
		{"overwrite", []byte("previous complete content")},
	} {
		t.Run(pre.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "target.bin")
			if pre.initial != nil {
				if err := os.WriteFile(path, pre.initial, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for n := 0; n <= len(payload); n++ {
				err := WriteFileAtomic(path, func(w io.Writer) error {
					if _, werr := w.Write(payload[:n]); werr != nil {
						return werr
					}
					return errBoom
				})
				if !errors.Is(err, errBoom) {
					t.Fatalf("offset %d: expected simulated crash error, got %v", n, err)
				}
				got, rerr := os.ReadFile(path)
				if pre.initial == nil {
					if !os.IsNotExist(rerr) {
						t.Fatalf("offset %d: target should not exist, got err=%v content=%q", n, rerr, got)
					}
				} else {
					if rerr != nil {
						t.Fatalf("offset %d: read target: %v", n, rerr)
					}
					if !bytes.Equal(got, pre.initial) {
						t.Fatalf("offset %d: target corrupted: %q", n, got)
					}
				}
				ents, derr := os.ReadDir(dir)
				if derr != nil {
					t.Fatal(derr)
				}
				for _, e := range ents {
					if strings.Contains(e.Name(), ".tmp-") {
						t.Fatalf("offset %d: leaked temp file %s", n, e.Name())
					}
				}
			}
			// A subsequent successful write still lands intact.
			if err := WriteFileAtomic(path, func(w io.Writer) error {
				_, werr := w.Write(payload)
				return werr
			}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("final write: err=%v content=%q", err, got)
			}
		})
	}
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".target.bin.tmp-12345")
	keep := filepath.Join(dir, "target.bin")
	for _, p := range []string{stale, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveStaleTemps(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived: %v", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("real file removed: %v", err)
	}
}

func TestSumWriterReaderRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSumWriter(&buf)
	payload := []byte("checksummed payload bytes")
	if _, err := sw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTrailer(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(payload)+TrailerSize {
		t.Fatalf("framed length %d, want %d", buf.Len(), len(payload)+TrailerSize)
	}

	sr := NewSumReader(bytes.NewReader(buf.Bytes()))
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(sr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if err := sr.VerifyTrailer(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyTrailerLegacyStream(t *testing.T) {
	payload := []byte("legacy file, no trailer")
	sr := NewSumReader(bytes.NewReader(payload))
	if _, err := io.ReadFull(sr, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := sr.VerifyTrailer(); err != ErrNoTrailer {
		t.Fatalf("want ErrNoTrailer, got %v", err)
	}
}

func TestVerifyTrailerDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSumWriter(&buf)
	payload := []byte("bytes that will be tampered with")
	sw.Write(payload)
	if err := sw.WriteTrailer(); err != nil {
		t.Fatal(err)
	}
	framed := buf.Bytes()

	// Flipping any single byte — payload, magic, or digest — must fail
	// verification; truncating at any offset past the payload start must too.
	for i := 0; i < len(framed); i++ {
		mut := append([]byte(nil), framed...)
		mut[i] ^= 0x40
		sr := NewSumReader(bytes.NewReader(mut))
		io.Copy(io.Discard, io.LimitReader(sr, int64(len(payload))))
		if err := sr.VerifyTrailer(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", i, err)
		}
	}
	for cut := len(payload) + 1; cut < len(framed); cut++ {
		sr := NewSumReader(bytes.NewReader(framed[:cut]))
		io.Copy(io.Discard, io.LimitReader(sr, int64(len(payload))))
		if err := sr.VerifyTrailer(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncate at %d: want ErrChecksum, got %v", cut, err)
		}
	}
}

func TestCacheKeyFraming(t *testing.T) {
	// Length framing: the same concatenated bytes split differently must give
	// different keys.
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("keys collide across part boundaries")
	}
	if a != Key([]byte("ab"), []byte("c")) {
		t.Fatal("Key is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64", len(a))
	}
}

func putEntry(t *testing.T, c *Cache, key string, payload []byte) {
	t.Helper()
	if err := c.Put(key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("tensor-digest"), []byte("dpar2"), []byte("r=8"))
	if _, ok := c.Get(key); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	payload := []byte("serialized result")
	putEntry(t, c, key, payload)
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("hit=%v payload=%q", ok, got)
	}
}

func TestCacheReopenPersists(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("persisted"))
	payload := []byte("survives reopen")
	putEntry(t, c, key, payload)

	c2, err := OpenCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: hit=%v payload=%q", ok, got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Entries are payload + TrailerSize bytes; size the bound for ~2 entries.
	entryBytes := int64(100 + TrailerSize)
	c, err := OpenCache(dir, 2*entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = Key([]byte(fmt.Sprintf("entry-%d", i)))
		putEntry(t, c, keys[i], bytes.Repeat([]byte{byte('a' + i)}, 100))
	}
	// The third Put pushed the cache over budget; the oldest entry goes.
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted unexpectedly", k)
		}
	}
	if c.Bytes() > 2*entryBytes {
		t.Fatalf("cache over budget: %d > %d", c.Bytes(), 2*entryBytes)
	}

	// Recency matters: touch keys[1], add a new entry, keys[2] is the victim.
	c.Get(keys[1])
	k3 := Key([]byte("entry-3"))
	putEntry(t, c, k3, bytes.Repeat([]byte{'d'}, 100))
	if _, ok := c.Get(keys[2]); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatal("recently-touched entry was evicted")
	}
}

// TestCacheCorruptEntryIsMiss: an entry damaged on disk behind the cache's
// back, by a flipped payload byte or a truncation (into the trailer, or
// below a trailer's size), is never served: Get reports a miss and drops
// the file.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	for name, damage := range map[string]func(raw []byte) []byte{
		"flip":     func(raw []byte) []byte { raw[3] ^= 0xff; return raw },
		"truncate": func(raw []byte) []byte { return raw[:len(raw)-1] },
		"short":    func(raw []byte) []byte { return raw[:TrailerSize-1] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenCache(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			key := Key([]byte("will-rot"))
			putEntry(t, c, key, []byte("pristine bytes"))

			path := filepath.Join(dir, key+cacheSuffix)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not dropped from disk")
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("dropped entry reappeared")
			}
		})
	}
}

func TestCachePutRejectsBadKey(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("not-a-sha256", func(w io.Writer) error { return nil }); err == nil {
		t.Fatal("expected error for malformed key")
	}
}

func TestOpenCacheRejectsNonPositiveBound(t *testing.T) {
	if _, err := OpenCache(t.TempDir(), 0); err == nil {
		t.Fatal("expected error for maxBytes=0")
	}
}
