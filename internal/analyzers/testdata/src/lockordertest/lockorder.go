// Package lockordertest is the fixture suite for the lockorder analyzer.
// Lock identity here follows summary.go's lockID: package-level locks are
// "lockordertest.muX", struct-field locks are "lockordertest.<type>.mu".
package lockordertest

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	muE sync.Mutex
	muF sync.Mutex
	muG sync.Mutex
	muH sync.Mutex

	counter int
)

// lockAB and lockBA acquire the same two package-level locks in opposite
// orders: the classic two-function deadlock no single function can see.
func lockAB() {
	muA.Lock()
	muB.Lock() // want `lock-order cycle lockordertest\.muA → lockordertest\.muB → lockordertest\.muA`
	counter++
	muB.Unlock()
	muA.Unlock()
}

func lockBA() {
	muB.Lock()
	muA.Lock()
	counter++
	muA.Unlock()
	muB.Unlock()
}

// consistentOrder1/2 take muC before muD everywhere: acyclic, no finding.
func consistentOrder1() {
	muC.Lock()
	muD.Lock()
	counter++
	muD.Unlock()
	muC.Unlock()
}

func consistentOrder2() {
	muC.Lock()
	defer muC.Unlock()
	muD.Lock()
	defer muD.Unlock()
	counter++
}

// engine/sched reproduce a cross-type cycle hidden behind helpers: each side
// holds its own lock and calls into the other, whose summary says it acquires
// the opposite lock. Neither function alone touches two locks.
type engine struct {
	mu sync.Mutex
	n  int
}

type sched struct {
	mu sync.Mutex
	n  int
}

func (s *sched) bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (e *engine) bump() {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
}

func (e *engine) pushToSched(s *sched) {
	e.mu.Lock()
	s.bump() // want `lock-order cycle lockordertest\.engine\.mu → lockordertest\.sched\.mu → lockordertest\.engine\.mu`
	e.mu.Unlock()
}

func (s *sched) pullFromEngine(e *engine) {
	s.mu.Lock()
	e.bump()
	s.mu.Unlock()
}

// suppressed: a documented deviation carries an //repro:allow at the cycle's
// canonical witness edge.
func pinnedOrderForward() {
	muE.Lock()
	muF.Lock() //repro:allow(lockorder) muF here is a short trylock-equivalent critical section audited in the admission design note
	counter++
	muF.Unlock()
	muE.Unlock()
}

func pinnedOrderBackward() {
	muF.Lock()
	muE.Lock()
	counter++
	muE.Unlock()
	muF.Unlock()
}

// stale: a directive with no matching finding is itself reported — muC→muD is
// consistent everywhere, so there is no cycle to suppress.
func staleAllow() {
	muC.Lock()
	// want-next `unused //repro:allow`
	//repro:allow(lockorder) C and D cycle through the drain path
	muD.Lock()
	counter++
	muD.Unlock()
	muC.Unlock()
}

// lockGThenHInline takes muH inside a literal it calls on the spot while
// muG is held, and lockHThenG takes the two the other way round: the
// literal runs under the caller's lock, so the cycle is real.
func lockGThenHInline() {
	muG.Lock()
	func() {
		muH.Lock() // want `lock-order cycle lockordertest\.muG → lockordertest\.muH → lockordertest\.muG`
		counter++
		muH.Unlock()
	}()
	muG.Unlock()
}

func lockHThenG() {
	muH.Lock()
	muG.Lock()
	counter++
	muG.Unlock()
	muH.Unlock()
}

// tracker starts lock2 on its own goroutine while holding mu, and lock2ThenMu
// takes mu2 then mu. The spawner never holds mu and mu2 together (lock2 runs
// on the new goroutine), so there is no mu → mu2 edge and no cycle.
type tracker struct {
	mu  sync.Mutex
	mu2 sync.Mutex
	n   int
}

func (t *tracker) lock2() {
	t.mu2.Lock()
	t.n++
	t.mu2.Unlock()
}

func (t *tracker) spawnUnderLock() {
	t.mu.Lock()
	go t.lock2()
	t.mu.Unlock()
}

func (t *tracker) lock2ThenMu() {
	t.mu2.Lock()
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
	t.mu2.Unlock()
}
