package core

import "specslice/internal/fsa"

// BuildQuery exposes a criterion's query automaton A0 to the external
// reference tests.
func BuildQuery(e *Encoding, spec CriterionSpec) (*fsa.FSA, error) { return spec.buildQuery(e) }
