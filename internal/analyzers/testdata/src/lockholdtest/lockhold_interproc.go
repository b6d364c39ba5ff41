// Interprocedural lockhold cases: blocking hidden behind a helper is resolved
// through the callee's MayBlock summary.
package lockholdtest

import "sync"

type flusher struct {
	mu      sync.Mutex
	wg      sync.WaitGroup
	done    chan struct{}
	pending int
}

// waitBehindHelper hides the blocking Wait one call down.
func (f *flusher) waitBehindHelper() {
	f.wg.Wait()
}

// flushHoldingLock blocks transitively while f.mu is held.
func (f *flusher) flushHoldingLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending = 0
	f.waitBehindHelper() // want `call to waitBehindHelper, which may block`
}

// flushUnlockFirst releases the lock before the blocking callee — clean.
func (f *flusher) flushUnlockFirst() {
	f.mu.Lock()
	f.pending = 0
	f.mu.Unlock()
	f.waitBehindHelper()
}

// tally is a plain non-blocking helper: calling it under the lock is fine.
func (f *flusher) tally() {
	f.pending++
}

func (f *flusher) addUnderLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tally()
}

// pollDone never waits: its select has a default clause, so the receive in
// its one case cannot park the caller.
func (f *flusher) pollDone() {
	select {
	case <-f.done:
	default:
	}
}

// pollUnderLock calls the non-blocking poll with f.mu held — clean.
func (f *flusher) pollUnderLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pollDone()
}

// spawner starts goroutines while holding its mutex.
type spawner struct {
	mu sync.Mutex
	ch chan int
}

func (t *spawner) recv() int { return <-t.ch }

func use(int) {}

// spawnUnderLock starts recv on its own goroutine: the receive blocks that
// goroutine, never the spawner, so holding t.mu across the go statement is
// clean.
func (t *spawner) spawnUnderLock() {
	t.mu.Lock()
	go t.recv()
	t.mu.Unlock()
}

// spawnArgUnderLock: a go statement's arguments are evaluated by the
// spawner, so the receive in them still blocks with t.mu held.
func (t *spawner) spawnArgUnderLock() {
	t.mu.Lock()
	go use(<-t.ch) // want `channel receive while holding t\.mu`
	t.mu.Unlock()
}
