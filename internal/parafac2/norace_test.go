//go:build !race

package parafac2

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
