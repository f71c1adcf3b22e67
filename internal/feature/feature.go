// Package feature implements the paper's §7 feature-removal algorithm
// (Alg. 2): the configurations of the forward stack-configuration slice of
// a criterion are subtracted from the configurations reachable from main's
// entry, and the specialization-slicing pipeline (Alg. 1 from line 4) turns
// the remaining — backwards-closed — configuration language into an
// executable program without the feature.
//
// This solves the multi-procedure feature-removal problem: a procedure used
// both by the feature and by remaining code (like the paper's add, used by
// both sum and product) is kept, specialized to its remaining uses.
package feature

import (
	"errors"

	"specslice/internal/core"
	"specslice/internal/fsa"
	"specslice/internal/sdg"
)

// Remove computes the feature-removal slice of g: the program minus the
// forward stack-configuration slice from the criterion vertices.
func Remove(g *sdg.Graph, criterion []sdg.VertexID) (*core.Result, error) {
	return RemoveWithEncoding(g, core.Encode(g), criterion)
}

// RemoveWithEncoding is Remove against a prebuilt (typically cached)
// encoding of g.
func RemoveWithEncoding(g *sdg.Graph, enc *core.Encoding, criterion []sdg.VertexID) (*core.Result, error) {
	if len(criterion) == 0 {
		return nil, errors.New("feature: empty criterion")
	}

	// A0 = Poststar(criterion configurations, in every calling context).
	q := fsa.New(enc.PDS.NumLocs)
	final := q.AddState()
	q.SetFinal(final)
	for _, v := range criterion {
		q.Add(0, enc.VertexSym(v), final)
	}
	for _, s := range g.Sites {
		q.Add(final, enc.SiteSym(s.ID), final)
	}
	a0 := core.PAutomatonToFSA(enc.PDS.Poststar(q))

	// A1 = Poststar(entry_main) ∩ complement(determinize(A0)).
	reach, err := enc.Reachable()
	if err != nil {
		return nil, err
	}
	keep := fsa.Intersect(reach, a0.Complement(enc.Alphabet()))
	if keep.IsEmpty() {
		return nil, errors.New("feature: removing the feature removes the entire program")
	}

	// Continue at line 4 of Alg. 1.
	return core.SpecializeFromSliceAutomaton(g, enc, keep)
}

// ForwardCriterion finds the vertices of procedure proc whose label
// matches, a convenience for selecting feature seeds like `prod = 1`. It
// renders labels for proc's vertices only.
func ForwardCriterion(g *sdg.Graph, proc, label string) []sdg.VertexID {
	pi, ok := g.ProcByName[proc]
	if !ok {
		return nil
	}
	var out []sdg.VertexID
	for _, v := range g.Procs[pi].Vertices {
		if g.Label(v) == label {
			out = append(out, v)
		}
	}
	return out
}
