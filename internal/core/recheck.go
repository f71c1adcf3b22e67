package core

import (
	"fmt"

	"specslice/internal/fsa"
	"specslice/internal/sdg"
)

// mcSymbolMap builds the mapping M_C from R's symbols (under encR, the
// encoding of R) to the source SDG's symbols (under enc): each specialized
// vertex or call-site maps to the source element it copies.
func (sp *Specialized) mcSymbolMap(enc, encR *Encoding) map[fsa.Symbol]fsa.Symbol {
	m := map[fsa.Symbol]fsa.Symbol{}
	for rv, sv := range sp.OriginVertex {
		m[encR.VertexSym(sdg.VertexID(rv))] = enc.VertexSym(sv)
	}
	for rs, ss := range sp.OriginSite {
		m[encR.SiteSym(sdg.SiteID(rs))] = enc.SiteSym(ss)
	}
	return m
}

// ReslicingCheck implements the paper's §8.3 self-check: build the output
// SDG R, slice it again with the criterion carried over through M_C⁻¹
// (intersected with R's reachable configurations), and verify that the two
// slices accept the same configuration language after mapping R's
// alphabet back to the source's:
//
//	L(A6_S) == L(T_C(A6_R))
//
// A non-nil error means the implementation miscomputed one of the slices.
func (r *Result) ReslicingCheck(spec CriterionSpec) error {
	sp := r.BuildR()
	encR := Encode(sp.R)
	mc := sp.mcSymbolMap(r.Enc, encR)

	// Criterion automaton C over the source alphabet.
	a0, err := spec.buildQuery(r.Enc)
	if err != nil {
		return err
	}
	c := PAutomatonToFSA(a0)

	// C' = T_C⁻¹(C) ∩ (R's reachable configurations).
	cInv := c.InverseRelabel(mc)
	reachR, err := encR.Reachable()
	if err != nil {
		return err
	}
	cPrime := fsa.Intersect(cInv, reachR)
	if cPrime.IsEmpty() {
		return fmt.Errorf("core: reslicing criterion is empty after transduction")
	}

	// Slice R.
	a1R := encR.PDS.Prestar(FSAToQuery(cPrime, encR.PDS.NumLocs))
	a6R := PAutomatonToFSA(a1R)

	// Compare L(A6_S) with L(T_C(A6_R)). (A1 and A6 accept the same
	// language, so comparing against A1 is equivalent and cheaper.)
	mapped := a6R.Relabel(mc)
	if !fsa.Equal(r.A1, mapped) {
		return fmt.Errorf("core: reslicing check failed: configuration languages differ")
	}
	return nil
}
