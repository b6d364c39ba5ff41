package dataio

import (
	"io"

	"repro/internal/state"
)

// writeUints and writeFloats write raw words through the state codec, for
// tests that hand-craft a layout the writers no longer produce.
func writeUints(w io.Writer, vals []uint64) error {
	enc := state.NewEncoder(w)
	for _, v := range vals {
		enc.U64(v)
	}
	return enc.Err()
}

func writeFloats(w io.Writer, vals []float64) error {
	enc := state.NewEncoder(w)
	enc.Floats(vals)
	return enc.Err()
}
