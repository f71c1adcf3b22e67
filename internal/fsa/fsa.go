// Package fsa implements the nondeterministic and deterministic finite
// automata, and the operations on them — reverse, epsilon removal,
// determinization (subset construction), minimization (Hopcroft),
// complement, intersection, language equality, and relabeling — that the
// specialization-slicing algorithm composes (paper Alg. 1, lines 4–8, and
// the §7/§8.3 extensions). It plays the role OpenFST plays in the paper's
// implementation.
//
// The hot-path representations are dense: state sets are bitsets,
// transition dedup goes through an open-addressing hash index keyed on
// packed (from, sym, to) ints, subset construction interns state-set
// bitsets through an FNV hash table, minimization refines partitions of
// states and transitions in O(n + m log m) for n states and m
// transitions, and the pipeline stages draw their scratch (symbol-indexed
// adjacency, worklists, move lists, partitions) from a pooled arena (see
// pipeline.go).
package fsa

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Symbol is an input symbol. Symbols are small non-negative integers
// assigned by the caller; Epsilon marks spontaneous transitions.
type Symbol int

// Epsilon is the empty-word pseudo-symbol.
const Epsilon Symbol = -1

// Transition is one labeled edge.
type Transition struct {
	From int
	Sym  Symbol
	To   int
}

// FSA is a finite automaton with a set of start states, possibly
// nondeterministic, possibly with epsilon transitions.
type FSA struct {
	numStates int
	starts    bitset
	finals    bitset
	out       [][]Transition
	// index deduplicates (from, sym, to) triples.
	index transSet
	// alpha caches the non-epsilon symbols on transitions, maintained
	// incrementally by Add. Transitions are never removed, so the set is
	// always exact; keeping it as an Add-time bitset (rather than a slice
	// cached lazily inside Alphabet) means concurrent readers of a shared
	// automaton never race on a cache fill.
	alpha bitset
}

// New returns an automaton with n states and no transitions.
func New(n int) *FSA {
	return &FSA{
		numStates: n,
		out:       make([][]Transition, n),
	}
}

// NumStates returns the state count.
func (a *FSA) NumStates() int { return a.numStates }

// AddState appends a state, returning its index.
func (a *FSA) AddState() int {
	a.numStates++
	a.out = append(a.out, nil)
	return a.numStates - 1
}

// SetStart marks s as a start state.
func (a *FSA) SetStart(s int) { a.starts.set(s) }

// SetFinal marks s as accepting.
func (a *FSA) SetFinal(s int) { a.finals.set(s) }

// IsStart reports whether s is a start state.
func (a *FSA) IsStart(s int) bool { return a.starts.get(s) }

// IsFinal reports whether s accepts.
func (a *FSA) IsFinal(s int) bool { return a.finals.get(s) }

// Starts returns the start states, sorted.
func (a *FSA) Starts() []int { return a.starts.members() }

// Finals returns the accepting states, sorted.
func (a *FSA) Finals() []int { return a.finals.members() }

// NumStarts returns the start-state count.
func (a *FSA) NumStarts() int { return a.starts.count() }

// Add inserts a transition (deduplicated). It reports whether the
// transition was new.
func (a *FSA) Add(from int, sym Symbol, to int) bool {
	t := Transition{from, sym, to}
	if !a.index.add(t) {
		return false
	}
	out := a.out[from]
	if len(out) == cap(out) {
		// Double: append grows long lists by about a quarter, and a
		// saturation that adds thousands of transitions to one state
		// would copy its list a few dozen times.
		out = slices.Grow(out, max(len(out), 4))
	}
	a.out[from] = append(out, t)
	if sym != Epsilon {
		a.alpha.set(int(sym))
	}
	return true
}

// Reserve sizes the transition-dedup index for about m transitions,
// avoiding rehash churn when the caller knows the transition count up
// front (bulk construction of queries, reversals, quotients).
func (a *FSA) Reserve(m int) { a.index.reserve(m) }

// ReserveOut makes room for m more transitions leaving s, for a caller
// that knows how many it will add there.
func (a *FSA) ReserveOut(s, m int) { a.out[s] = slices.Grow(a.out[s], m) }

// Has reports whether the transition exists.
func (a *FSA) Has(from int, sym Symbol, to int) bool {
	return a.index.has(Transition{from, sym, to})
}

// Out returns the transitions leaving s.
func (a *FSA) Out(s int) []Transition { return a.out[s] }

// each visits every transition in insertion order per state.
func (a *FSA) each(f func(Transition)) {
	for _, ts := range a.out {
		for _, t := range ts {
			f(t)
		}
	}
}

// Each visits every transition, grouped by source state in insertion
// order — the allocation-free alternative to Transitions() for callers
// that do not need the sorted copy (the core readout and the slice
// projections consume automata this way).
func (a *FSA) Each(f func(Transition)) { a.each(f) }

// Transitions returns every transition, ordered by (from, sym, to).
func (a *FSA) Transitions() []Transition {
	out := make([]Transition, 0, a.index.n)
	a.each(func(t Transition) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].Sym != out[j].Sym {
			return out[i].Sym < out[j].Sym
		}
		return out[i].To < out[j].To
	})
	return out
}

// NumTransitions returns the transition count.
func (a *FSA) NumTransitions() int { return a.index.n }

// Alphabet returns the non-epsilon symbols appearing on transitions,
// sorted. The set is maintained incrementally by Add, so this is a single
// pass over a bitset — no map, no sort.
func (a *FSA) Alphabet() []Symbol {
	out := make([]Symbol, 0, a.alpha.count())
	a.alpha.forEach(func(s int) { out = append(out, Symbol(s)) })
	return out
}

// closureInto expands set (a fixed-width bitset over the automaton's
// states) across epsilon transitions in place, using work as the DFS stack;
// the (possibly grown) stack is returned for reuse.
func (a *FSA) closureInto(set bitset, work []int) []int {
	work = work[:0]
	set.forEach(func(s int) { work = append(work, s) })
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range a.out[s] {
			if t.Sym == Epsilon && !set.get(t.To) {
				set[t.To>>6] |= 1 << (uint(t.To) & 63)
				work = append(work, t.To)
			}
		}
	}
	return work
}

// Accepts reports whether the automaton accepts the word.
func (a *FSA) Accepts(word []Symbol) bool {
	w := bitsWords(a.numStates)
	cur := make(bitset, w)
	copy(cur, a.starts)
	return a.acceptsSet(cur, word)
}

// AcceptsFrom reports whether the automaton accepts word when started in
// the given state (rather than the start set). P-automata use this to test
// configuration acceptance: state = control location, word = stack.
func (a *FSA) AcceptsFrom(state int, word []Symbol) bool {
	cur := make(bitset, bitsWords(a.numStates))
	if state < a.numStates {
		cur[state>>6] |= 1 << (uint(state) & 63)
	}
	return a.acceptsSet(cur, word)
}

// acceptsSet runs the word from the given state set; cur must be a
// fixed-width bitset over the automaton's states (it is consumed).
func (a *FSA) acceptsSet(cur bitset, word []Symbol) bool {
	next := make(bitset, len(cur))
	work := a.closureInto(cur, nil)
	for _, sym := range word {
		clear(next)
		any := false
		cur.forEach(func(s int) {
			for _, t := range a.out[s] {
				if t.Sym == sym {
					next[t.To>>6] |= 1 << (uint(t.To) & 63)
					any = true
				}
			}
		})
		cur, next = next, cur
		if !any {
			return false
		}
		work = a.closureInto(cur, work)
	}
	return cur.intersects(a.finals)
}

// Reverse returns an automaton for the reversed language: every transition
// is flipped and start/final sets swap.
func (a *FSA) Reverse() *FSA {
	r := New(a.numStates)
	r.Reserve(a.index.n)
	a.each(func(t Transition) { r.Add(t.To, t.Sym, t.From) })
	r.starts = a.finals.clone()
	r.finals = a.starts.clone()
	return r
}

// RemoveEpsilon returns an equivalent automaton without epsilon
// transitions, trimmed. Already-epsilon-free automata are only trimmed.
func (a *FSA) RemoveEpsilon() *FSA {
	if !a.hasEpsilon() {
		return a.Trim()
	}
	return a.RemoveEpsilonInPlace()
}

// RemoveEpsilonInPlace is RemoveEpsilon for a caller that does not use a
// again: an epsilon-free a is trimmed in place and returned, so the
// conversion copies nothing.
func (a *FSA) RemoveEpsilonInPlace() *FSA {
	if !a.hasEpsilon() {
		return a.trimInPlace()
	}
	ar := getArena()
	defer putArena(ar)
	adj := buildAdjacency(a, false, ar)
	r := New(a.numStates)
	r.Reserve(a.index.n)
	w := bitsWords(a.numStates)
	cl := bitset(ar.u64(w))
	for s := 0; s < a.numStates; s++ {
		clear(cl)
		cl[s>>6] |= 1 << (uint(s) & 63)
		adj.closure(cl, ar)
		cl.forEach(func(c int) {
			if a.finals.get(c) {
				r.SetFinal(s)
			}
			for j := adj.start[c]; j < adj.start[c+1]; j++ {
				r.Add(s, adj.syms[adj.tsym[j]], int(adj.tto[j]))
			}
		})
	}
	r.starts = a.starts.clone()
	return r.trimInPlace()
}

// hasEpsilon reports whether some transition is an epsilon transition.
func (a *FSA) hasEpsilon() bool {
	for _, ts := range a.out {
		for _, t := range ts {
			if t.Sym == Epsilon {
				return true
			}
		}
	}
	return false
}

// distinctNonEps reports whether the automaton has no epsilon transitions
// and no two transitions sharing a key under keyOf, probing an arena-backed
// open-addressing set (no per-call heap allocation, bounded by the
// transition count rather than the symbol range).
func (a *FSA) distinctNonEps(keyOf func(Transition) uint64) bool {
	ar := getArena()
	defer putArena(ar)
	need := 16
	for need < 2*a.index.n {
		need *= 2
	}
	slots := ar.u64(need)
	mask := uint64(need - 1)
	for _, ts := range a.out {
		for _, t := range ts {
			if t.Sym == Epsilon {
				return false
			}
			k := keyOf(t)
			i := (k * 0x9E3779B97F4A7C15) >> 32 & mask
			for slots[i] != 0 {
				if slots[i] == k+1 {
					return false
				}
				i = (i + 1) & mask
			}
			slots[i] = k + 1
		}
	}
	return true
}

// IsDeterministic reports whether the automaton has a single start state,
// no epsilon transitions, and at most one transition per (state, symbol).
func (a *FSA) IsDeterministic() bool {
	return a.starts.count() == 1 &&
		a.distinctNonEps(func(t Transition) uint64 {
			return uint64(t.From)<<32 | uint64(uint32(t.Sym))
		})
}

// IsReverseDeterministic reports whether the reversed automaton is
// deterministic — the defining property of the paper's A6 (Obs. 3.11).
// Checked directly on the transition structure, without materializing the
// reversal: exactly one final state (the reversal's single start), no
// epsilon transitions, and no two transitions on the same symbol entering
// the same state.
func (a *FSA) IsReverseDeterministic() bool {
	return a.finals.count() == 1 &&
		a.distinctNonEps(func(t Transition) uint64 {
			return uint64(t.To)<<32 | uint64(uint32(t.Sym))
		})
}

// Trim removes states that are not both reachable from a start state and
// able to reach a final state, remapping state indices.
func (a *FSA) Trim() *FSA { return a.Clone().trimInPlace() }

// trimInPlace is Trim on a's own storage: the kept states are renumbered
// in order, each out list is filtered where it lies, and the transition
// index, alphabet, start and final sets are rebuilt over the kept
// transitions. It returns a.
func (a *FSA) trimInPlace() *FSA {
	ar := getArena()
	defer putArena(ar)
	n := a.numStates
	w := bitsWords(n)
	reach := bitset(ar.u64(w))
	work := ar.cwork[:0]
	a.starts.forEach(func(s int) {
		reach[s>>6] |= 1 << (uint(s) & 63)
		work = append(work, int32(s))
	})
	for len(work) > 0 {
		s := int(work[len(work)-1])
		work = work[:len(work)-1]
		for _, t := range a.out[s] {
			if !reach.get(t.To) {
				reach[t.To>>6] |= 1 << (uint(t.To) & 63)
				work = append(work, int32(t.To))
			}
		}
	}
	// Co-reachable: backward from finals over an arena CSR of the reversed
	// edges (symbols are irrelevant here).
	bstart := ar.i32(n + 1)
	a.each(func(t Transition) { bstart[t.To+1]++ })
	for s := 0; s < n; s++ {
		bstart[s+1] += bstart[s]
	}
	bfrom := ar.i32(int(bstart[n]))
	bcur := ar.i32(n)
	copy(bcur, bstart[:n])
	for from, ts := range a.out {
		for _, t := range ts {
			bfrom[bcur[t.To]] = int32(from)
			bcur[t.To]++
		}
	}
	co := bitset(ar.u64(w))
	work = work[:0]
	a.finals.forEach(func(s int) {
		co[s>>6] |= 1 << (uint(s) & 63)
		work = append(work, int32(s))
	})
	for len(work) > 0 {
		s := int(work[len(work)-1])
		work = work[:len(work)-1]
		for j := bstart[s]; j < bstart[s+1]; j++ {
			p := bfrom[j]
			if !co.get(int(p)) {
				co[p>>6] |= 1 << (uint(p) & 63)
				work = append(work, p)
			}
		}
	}
	ar.cwork = work[:0]
	keep := ar.i32(n) // new state + 1
	n2 := 0
	for s := 0; s < n; s++ {
		if reach.get(s) && co.get(s) {
			keep[s] = int32(n2) + 1
			n2++
		}
	}

	// Kept states only move down, and in order, so state s's list lands in
	// a slot whose own list has already been moved or dropped.
	clear(a.index.slots)
	a.index.n, a.index.wide = 0, nil
	clear(a.alpha)
	for s := 0; s < n; s++ {
		ts := a.out[s]
		a.out[s] = nil
		if keep[s] == 0 {
			continue
		}
		f := int(keep[s] - 1)
		kept := ts[:0]
		for _, t := range ts {
			if g := keep[t.To]; g > 0 {
				t = Transition{From: f, Sym: t.Sym, To: int(g - 1)}
				a.index.add(t)
				if t.Sym != Epsilon {
					a.alpha.set(int(t.Sym))
				}
				kept = append(kept, t)
			}
		}
		if len(kept) > 0 {
			a.out[f] = kept
		}
	}
	clear(a.out[n2:])
	a.out = a.out[:n2]
	a.numStates = n2
	a.starts = remapBits(a.starts, keep, n2)
	a.finals = remapBits(a.finals, keep, n2)
	return a
}

// remapBits renumbers the members of b by keep (new state + 1, 0 for a
// dropped state) in place, for a result of n states. Kept states only
// move down, so each word is read out before any bit lands in it.
func remapBits(b bitset, keep []int32, n int) bitset {
	for wi, w := range b {
		b[wi] = 0
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &^= 1 << uint(i)
			if g := int(keep[wi<<6+i]) - 1; g >= 0 {
				b[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}
	return b[:min(len(b), bitsWords(n))]
}

// IsEmpty reports whether the language is empty.
func (a *FSA) IsEmpty() bool {
	t := a.Trim()
	return t.finals.count() == 0 || t.starts.count() == 0
}

// Relabel applies a symbol mapping (a one-state transducer), merging any
// symbols that map to the same image. Symbols not in the map are kept.
func (a *FSA) Relabel(m map[Symbol]Symbol) *FSA {
	r := New(a.numStates)
	a.each(func(t Transition) {
		sym := t.Sym
		if sym != Epsilon {
			if to, ok := m[sym]; ok {
				sym = to
			}
		}
		r.Add(t.From, sym, t.To)
	})
	r.starts = a.starts.clone()
	r.finals = a.finals.clone()
	return r
}

// InverseRelabel applies the inverse of a symbol mapping: a transition on
// symbol s becomes one transition per preimage of s. Symbols with no
// preimage are dropped.
func (a *FSA) InverseRelabel(m map[Symbol]Symbol) *FSA {
	pre := map[Symbol][]Symbol{}
	for from, to := range m {
		pre[to] = append(pre[to], from)
	}
	r := New(a.numStates)
	a.each(func(t Transition) {
		if t.Sym == Epsilon {
			r.Add(t.From, Epsilon, t.To)
			return
		}
		for _, s := range pre[t.Sym] {
			r.Add(t.From, s, t.To)
		}
	})
	r.starts = a.starts.clone()
	r.finals = a.finals.clone()
	return r
}

// Clone deep-copies the automaton by structural copy — the transition
// index is memcpy'd rather than re-hashed, so cloning is cheap on the warm
// path (P-automaton → FSA conversion clones per request).
func (a *FSA) Clone() *FSA {
	r := &FSA{
		numStates: a.numStates,
		starts:    a.starts.clone(),
		finals:    a.finals.clone(),
		alpha:     a.alpha.clone(),
		out:       make([][]Transition, len(a.out)),
		index:     a.index.clone(),
	}
	for i, ts := range a.out {
		if len(ts) > 0 {
			r.out[i] = append([]Transition(nil), ts...)
		}
	}
	return r
}

// String renders the automaton for debugging.
func (a *FSA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FSA{states=%d starts=%v finals=%v\n", a.numStates, a.Starts(), a.Finals())
	for _, t := range a.Transitions() {
		sym := fmt.Sprintf("%d", t.Sym)
		if t.Sym == Epsilon {
			sym = "ε"
		}
		fmt.Fprintf(&sb, "  %d -%s-> %d\n", t.From, sym, t.To)
	}
	sb.WriteString("}")
	return sb.String()
}
