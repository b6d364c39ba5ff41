package state

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// cacheSuffix is the filename suffix for cache entries; the stem is the
// 64-hex-digit sha256 key.
const cacheSuffix = ".cache"

// Cache is a content-addressed result cache on disk. Entries are keyed by a
// caller-derived sha256 (see Key), stored one file per entry, written
// atomically with a checksum trailer, and evicted least-recently-used once
// total payload bytes exceed the configured bound.
//
// All methods are safe for concurrent use. The cache mutex guards the index,
// the LRU list and the byte total. Get takes it to look the key up and
// again to record the outcome, and reads and checks the entry in between
// (about 1.25 ms for a 980 KB entry), so hits on different keys do not queue
// behind one another. Put writes its entry outside it (the write, two fsyncs
// and the rename take milliseconds) and takes it only to index the renamed
// file and evict, so a lookup never waits behind a store.
type Cache struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64

	total   int64
	lru     *list.List               // front = most recent; values are *cacheEntry
	entries map[string]*list.Element // key → element
}

type cacheEntry struct {
	key  string
	size int64
}

// Key derives a cache key as the hex sha256 of the given parts, each framed
// with its length so distinct part sequences can never collide by
// concatenation.
func Key(parts ...[]byte) string {
	h := sha256.New()
	enc := NewEncoder(h)
	for _, p := range parts {
		enc.U64(uint64(len(p)))
		enc.Bytes(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OpenCache opens (creating if needed) a cache rooted at dir, bounded to
// maxBytes of payload on disk. Existing entries are scanned and their
// modification times seed the LRU order; stale temporaries from crashed
// writers are removed. maxBytes must be positive.
func OpenCache(dir string, maxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("state: cache maxBytes must be positive, got %d", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: create cache dir: %w", err)
	}
	if err := RemoveStaleTemps(dir); err != nil {
		return nil, fmt.Errorf("state: clean cache dir: %w", err)
	}
	c := &Cache{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("state: scan cache dir: %w", err)
	}
	type seen struct {
		key   string
		size  int64
		mtime int64
	}
	var found []seen
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, cacheSuffix) {
			continue
		}
		key := strings.TrimSuffix(name, cacheSuffix)
		if len(key) != 2*sha256.Size || !isHex(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, seen{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first so the newest entries end up at the front of the LRU.
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].key < found[j].key
	})
	for _, f := range found {
		c.entries[f.key] = c.lru.PushFront(&cacheEntry{key: f.key, size: f.size})
		c.total += f.size
	}
	c.evictLocked()
	return c, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+cacheSuffix)
}

// Get looks key up and, on a hit, returns the entry's payload: the file is
// read whole in one read sized by its length, and its trailer is checked in
// one sha256 pass over the payload. An entry that is unreadable or fails its
// checksum is dropped from the cache and reported as a miss, like an absent
// key. The caller owns the returned bytes.
//
// The read and the check run outside the cache mutex, so hits on different
// keys proceed in parallel. A failed check drops the entry only if the index
// still holds the element Get looked up: a Put that replaced it meanwhile
// indexed a new element for its new file.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	raw, err := os.ReadFile(c.path(key))
	if err == nil {
		raw, err = cutTrailer(raw)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	current := c.entries[key] == el
	if err != nil {
		// The entry is corrupt on disk or unreadable: drop it and report a
		// miss, not an error.
		if current {
			c.dropLocked(el)
		}
		return nil, false
	}
	if current {
		c.lru.MoveToFront(el)
	}
	return raw, true
}

// Put stores the payload produced by write under key, atomically and with a
// checksum trailer, then evicts least-recently-used entries until the cache
// fits its byte bound again. Overwriting an existing key is allowed.
//
// The entry is indexed only if its file is still there once Put holds the
// mutex: an eviction or a corrupt-entry drop that removed it after the
// rename leaves neither file nor index entry, and the next lookup misses.
func (c *Cache) Put(key string, write func(w io.Writer) error) error {
	if len(key) != 2*sha256.Size || !isHex(key) {
		return fmt.Errorf("state: invalid cache key %q", key)
	}
	path := c.path(key)
	err := WriteFileAtomic(path, func(w io.Writer) error {
		sw := NewSumWriter(w)
		if err := write(sw); err != nil {
			return err
		}
		return sw.WriteTrailer()
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("state: stat cache entry: %w", err)
	}
	// An overwrite indexes a new element, so a Get still checking the old
	// file can tell that its element was replaced.
	if el, ok := c.entries[key]; ok {
		c.total -= el.Value.(*cacheEntry).size
		c.lru.Remove(el)
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, size: info.Size()})
	c.total += info.Size()
	c.evictLocked()
	return nil
}

// dropLocked removes an entry from the in-memory index and best-effort from
// disk. Caller holds c.mu.
func (c *Cache) dropLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.total -= e.size
	os.Remove(c.path(e.key))
}

// evictLocked removes least-recently-used entries until total ≤ maxBytes,
// always keeping the most recent entry even if it alone exceeds the bound.
// Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.total > c.maxBytes && c.lru.Len() > 1 {
		c.dropLocked(c.lru.Back())
	}
}

// Len and Bytes report the current entry count and payload byte total —
// primarily for tests and diagnostics.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the total on-disk payload bytes currently accounted to the
// cache.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
