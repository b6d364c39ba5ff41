//go:build race

package parafac2

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so arena reuse, and with it any allocation count, is not
// deterministic there.
const raceEnabled = true
