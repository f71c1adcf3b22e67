package engine

import "specslice/internal/sdg"

// Snapshot serializes the engine's graph for the persistent store. The
// summary edges, automaton and Prestar indexes are deliberately not
// stored — they rebuild from the graph on the first request that needs
// them and would dominate the snapshot's size.
func (e *Engine) Snapshot() ([]byte, error) {
	return sdg.EncodeSnapshot(e.g)
}

// FromSnapshot reconstructs an engine from Snapshot bytes. The decoded
// engine serves slices byte-identical to one cold-built from the
// snapshot's source, and version chains can Advance from it. Corrupt
// input returns an error, never panics.
func FromSnapshot(data []byte) (*Engine, error) {
	g, err := sdg.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return New(g), nil
}
