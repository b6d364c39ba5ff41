package main

import (
	"math"
	"sync"
	"time"
)

// Host-speed normalisation.
//
// The reference host gives this benchmark two cores of a shared machine, and
// their speed moves within seconds as neighbours load them: the same op runs
// up to 1.7x slower from one second to the next, in process CPU time as well
// as in wall time, so neither clock alone gives a steady reading. Every timed
// span (an op, a serve-mixed round, a set-up) is therefore bracketed by short
// bursts of a fixed, benchmark-owned kernel, and its wall time is scaled to a
// reference speed:
//
//	scaled = wall × (refBurstMS / √(burst before × burst after))^speedExponent
//
// The kernel is plain Go written here, not the repository's mat package, so a
// change to the program moves the op but never the yardstick. It runs on
// poolWidth goroutines, like the pool the ops run on.

// refBurstMS is the burst time the scaled times refer to: about a burst's
// median on the reference host (2-core shared VM, Go 1.24) while loaded.
const refBurstMS = 2.0

// speedExponent is how strongly op time follows burst time. A tight
// multiply-add loop slows more under contention than an op, which also waits
// on memory: over runs of ten seconds or more on the reference host, op time
// followed burst^0.8 (the exponent under which the runs' scaled medians
// agreed best), while a per-op log-log fit reads lower because single bursts
// are noisy.
const speedExponent = 0.8

const (
	kernelN    = 64 // kernel matrices are kernelN × kernelN
	kernelReps = 8  // multiply-adds per goroutine per burst
	burstTries = 3  // a burst is the fastest of this many tries
)

// speedMeter times calibration bursts. It is not safe for concurrent use.
type speedMeter struct {
	bufs   [poolWidth][3][]float64
	bursts []float64 // every burst taken, in ms
}

func newSpeedMeter() *speedMeter {
	m := &speedMeter{}
	for w := range m.bufs {
		for i := range m.bufs[w] {
			m.bufs[w][i] = make([]float64, kernelN*kernelN)
		}
		for i := range m.bufs[w][0] {
			m.bufs[w][0][i] = float64(i%7) * 0.125
			m.bufs[w][1][i] = float64(i%5) * 0.25
		}
	}
	return m
}

// burst returns the fastest of burstTries kernel runs, in ms.
func (m *speedMeter) burst() float64 {
	best := math.Inf(1)
	for try := 0; try < burstTries; try++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range m.bufs {
			wg.Add(1)
			go func(b *[3][]float64) {
				defer wg.Done()
				clear(b[2])
				for r := 0; r < kernelReps; r++ {
					mulAdd(b[0], b[1], b[2])
				}
			}(&m.bufs[w])
		}
		wg.Wait()
		best = min(best, durMS(time.Since(t0)))
	}
	m.bursts = append(m.bursts, best)
	return best
}

// note describes the bursts taken so far.
func (m *speedMeter) note(rep *report) {
	q := quartiles(m.bursts)
	rep.notef("%d calibration bursts: quartiles %.3f / %.3f / %.3f ms (reference %.3f ms)",
		len(m.bursts), q[0], q[1], q[2], refBurstMS)
}

// mulAdd is c += a·b for kernelN × kernelN row-major matrices.
func mulAdd(a, b, c []float64) {
	const n = kernelN
	for i := 0; i < n; i++ {
		row := c[i*n : i*n+n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			brow := b[k*n : k*n+n]
			for j := range row {
				row[j] += aik * brow[j]
			}
		}
	}
}

// scale is the factor that turns wall time taken between two bursts into
// reference-speed time.
func scale(before, after float64) float64 {
	return math.Pow(refBurstMS/math.Sqrt(before*after), speedExponent)
}

// span times f between two bursts and returns its wall time in ms and the
// scale factor for it. Consecutive spans can share bursts: pass the previous
// span's closing burst as before (0 takes a fresh one); next is this span's
// closing burst.
func (m *speedMeter) span(before float64, f func()) (wallMS, factor, next float64) {
	if before == 0 {
		before = m.burst()
	}
	t0 := time.Now()
	f()
	wallMS = durMS(time.Since(t0))
	next = m.burst()
	return wallMS, scale(before, next), next
}
