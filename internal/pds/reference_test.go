package pds

import (
	"sync"

	"specslice/internal/fsa"
)

// This file keeps the original map-based Prestar engine as the reference
// for the dense one in pds.go: per-run rel/Δ′ relations in Go maps keyed by
// (state, symbol) pairs and 4-int tuples, rule indexes in maps keyed by the
// RHS head <q, γ>. TestPrestarDifferential compares the two.

// refDyn is a dynamic pseudo-internal rule Δ′: <p₁,γ₁> → <q′,γ₂>.
type refDyn struct {
	p1 int
	g1 fsa.Symbol
}

// ReferencePrestarEngine is the map-based Prestar engine. It is exported
// (in a test file only) so the external corpus test can reach it.
type ReferencePrestarEngine struct {
	p        *PDS
	internal map[locSym][]Rule // internal rules indexed by RHS <q, γ>
	push     map[locSym][]Rule // push rules indexed by RHS head <q, γ>
	pops     []Rule

	mu   sync.Mutex
	free []*refArena
}

type refArena struct {
	work     []fsa.Transition
	relSeen  map[fsa.Transition]bool
	relBySrc map[locSym][]int
	dynRules map[locSym][]refDyn
	dynSeen  map[[4]int]bool
}

func (a *refArena) reset() {
	a.work = a.work[:0]
	clear(a.relSeen)
	clear(a.relBySrc)
	clear(a.dynRules)
	clear(a.dynSeen)
}

func (e *ReferencePrestarEngine) getArena() *refArena {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		ar := e.free[n-1]
		e.free = e.free[:n-1]
		return ar
	}
	return &refArena{
		relSeen:  map[fsa.Transition]bool{},
		relBySrc: map[locSym][]int{},
		dynRules: map[locSym][]refDyn{},
		dynSeen:  map[[4]int]bool{},
	}
}

func (e *ReferencePrestarEngine) putArena(ar *refArena) {
	ar.reset()
	e.mu.Lock()
	e.free = append(e.free, ar)
	e.mu.Unlock()
}

// NewReferencePrestarEngine indexes the rules of p in maps.
func NewReferencePrestarEngine(p *PDS) *ReferencePrestarEngine {
	e := &ReferencePrestarEngine{
		p:        p,
		internal: map[locSym][]Rule{},
		push:     map[locSym][]Rule{},
	}
	for _, r := range p.Rules {
		switch r.N {
		case 0:
			e.pops = append(e.pops, r)
		case 1:
			k := locSym{int(r.P2), fsa.Symbol(r.W[0])}
			e.internal[k] = append(e.internal[k], r)
		case 2:
			k := locSym{int(r.P2), fsa.Symbol(r.W[0])}
			e.push[k] = append(e.push[k], r)
		}
	}
	return e
}

// Prestar runs the saturation against query automaton a.
func (e *ReferencePrestarEngine) Prestar(a *fsa.FSA) *fsa.FSA {
	res := a.Clone()
	for res.NumStates() < e.p.NumLocs {
		res.AddState()
	}

	ar := e.getArena()
	defer e.putArena(ar)
	relSeen, relBySrc := ar.relSeen, ar.relBySrc
	dynRules, dynSeen := ar.dynRules, ar.dynSeen
	work := ar.work

	pushT := func(t fsa.Transition) {
		if !relSeen[t] {
			work = append(work, t)
		}
	}
	for _, t := range a.Transitions() {
		pushT(t)
	}
	for _, r := range e.pops {
		pushT(fsa.Transition{From: int(r.P), Sym: fsa.Symbol(r.G), To: int(r.P2)})
	}

	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if relSeen[t] {
			continue
		}
		relSeen[t] = true
		res.Add(t.From, t.Sym, t.To)
		k := locSym{t.From, t.Sym}
		relBySrc[k] = append(relBySrc[k], t.To)

		for _, r := range e.internal[k] {
			pushT(fsa.Transition{From: int(r.P), Sym: fsa.Symbol(r.G), To: t.To})
		}
		for _, d := range dynRules[k] {
			pushT(fsa.Transition{From: d.p1, Sym: d.g1, To: t.To})
		}
		for _, r := range e.push[k] {
			// Register Δ′ rule <r.P, r.G> → <t.To, r.W[1]>.
			key := [4]int{int(r.P), int(r.G), t.To, int(r.W[1])}
			if !dynSeen[key] {
				dynSeen[key] = true
				dk := locSym{t.To, fsa.Symbol(r.W[1])}
				dynRules[dk] = append(dynRules[dk], refDyn{int(r.P), fsa.Symbol(r.G)})
				for _, q2 := range relBySrc[dk] {
					pushT(fsa.Transition{From: int(r.P), Sym: fsa.Symbol(r.G), To: q2})
				}
			}
		}
	}
	ar.work = work
	return res
}
