// Package state is the durable-state layer under every on-disk artifact the
// repository produces: tensors and factorizations (internal/dataio), stream
// checkpoints (internal/parafac2), and the Engine's content-addressed result
// cache. It provides four primitives:
//
//   - WriteFileAtomic: crash-safe file replacement (write a temp file in the
//     destination directory, fsync, rename over the target, fsync the
//     directory), so a reader never observes a torn or truncated file — it
//     sees either the previous complete content or the new complete content.
//
//   - SumWriter / SumReader: sha256 content-checksum framing. A writer hashes
//     every payload byte and appends a small versioned trailer; a reader
//     re-hashes what it consumed and verifies the trailer, turning silent
//     corruption (bit rot, torn copies, adversarial edits) into a typed
//     error instead of garbage data.
//
//   - Cache: a content-addressed result cache on disk — entries keyed by a
//     caller-derived sha256, persisted atomically, LRU-bounded on total
//     payload bytes, with hit/miss counters.
//
//   - Encoder / Decoder: the one codec every persisted format is written
//     in — little-endian 64-bit words (integers, IEEE-754 float bit
//     patterns, booleans) and chunked float arrays, with sticky errors and
//     the header limits (MaxDim, MaxElems) that keep a hostile header from
//     reserving huge buffers.
//
// The package is intentionally stdlib-only and imports nothing from the rest
// of the repository, so every layer (dataio, parafac2, the Engine) can build
// on it without cycles. See docs/DURABILITY.md for the crash-safety contract
// and the on-disk formats layered on top of these primitives.
package state

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file so that path transitions atomically from its
// previous content (or absence) to the bytes produced by write: the payload
// goes to a temporary file in path's directory, is fsynced, and is renamed
// over path, after which the directory itself is fsynced so the rename
// survives a power loss. If write returns an error — or any I/O step fails —
// the temporary file is removed and path is left exactly as it was: a crash
// or failure at ANY byte offset of the write never leaves a truncated or
// partial file at path.
//
// The temporary file is created with O_EXCL under a name derived from path,
// so concurrent writers to the same path do not interleave; the last rename
// wins, and every observed state of path is a complete payload.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("state: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()        // no-op if already closed
			os.Remove(tmpName) // best effort; the temp never becomes path
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("state: write %s: %w", path, err)
	}
	// fsync BEFORE rename: the rename must never make durable a name whose
	// content is still sitting in the page cache.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("state: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("state: close temp for %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("state: rename %s: %w", path, err)
	}
	// fsync the directory so the rename itself is durable. Failure here is
	// reported (the caller may retry) but the file content at path is already
	// complete and valid either way.
	if d, derr := os.Open(dir); derr == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return fmt.Errorf("state: sync dir of %s: %w", path, serr)
		}
	}
	return nil
}

// RemoveStaleTemps deletes leftover temporary files in dir that a crashed
// WriteFileAtomic could have left behind (they are hidden ".<name>.tmp-*"
// files and never become visible targets on their own). Safe to call on a
// live directory: in-flight temps that disappear only fail their writer,
// which reports the error and leaves the target intact.
func RemoveStaleTemps(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, ".*.tmp-*"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
