//go:build unix

package state

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCacheGetDoesNotBlockGet: Get reads and checks an entry outside the
// cache mutex, so while one Get is stuck inside its read (its entry's file
// is a FIFO whose writer sends nothing) a Get of another key returns. The
// stuck Get then sees a damaged entry: it reports a miss and drops it.
func TestCacheGetDoesNotBlockGet(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ready, stuck := Key([]byte("ready")), Key([]byte("stuck"))
	putEntry(t, c, ready, []byte("stored"))
	putEntry(t, c, stuck, []byte("replaced by a fifo"))
	path := filepath.Join(dir, stuck+cacheSuffix)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Fatal(err)
	}

	stuckHit := make(chan bool, 1)
	go func() {
		_, ok := c.Get(stuck)
		stuckHit <- ok
	}()
	// A non-blocking open for writing succeeds only once the Get's open
	// for reading waits on the FIFO; from then on its read blocks until the
	// writer closes.
	var writer *os.File
	for deadline := time.Now().Add(5 * time.Second); writer == nil; {
		writer, err = os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("the Get never opened its entry: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	got := make(chan []byte, 1)
	go func() {
		payload, _ := c.Get(ready)
		got <- payload
	}()
	select {
	case payload := <-got:
		if string(payload) != "stored" {
			t.Fatalf("Get during a stuck Get = %q, want %q", payload, "stored")
		}
	case <-time.After(2 * time.Second):
		writer.Close()
		<-stuckHit
		t.Fatal("Get of another key waited behind a Get stuck in its read")
	}

	writer.Close()
	if <-stuckHit {
		t.Fatal("an empty entry was served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("the damaged entry was not dropped from disk")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("cache indexes %d entries after the drop, want 1", n)
	}
}
