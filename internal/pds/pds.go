// Package pds implements pushdown systems and the Prestar/Poststar
// saturation procedures of Bouajjani et al. (1997) and Esparza et al.
// (2000), in the efficient worklist formulation of Schwoon's thesis. It
// plays the role WALi plays in the paper's implementation.
//
// A P-automaton is represented as an *fsa.FSA whose states 0..NumLocs-1 are
// the PDS control locations; a configuration (p, w) is accepted when the
// automaton accepts w starting from state p. Query automata must have no
// transitions into control-location states and no epsilon transitions.
package pds

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"specslice/internal/fsa"
)

// Rule is a pushdown rule <P, G> ↪ <P2, W[:N]> with N ≤ 2: N = 0 is a pop
// rule, 1 an internal rule, 2 a push rule. G and W hold fsa.Symbol values.
// The right-hand stack word is held inline and every field is an int32,
// which an encoding's control locations and stack symbols fit, so a rule
// is 24 bytes with no pointer and a rule list is one flat array the
// garbage collector does not scan.
type Rule struct {
	P, P2 int32
	G     int32
	W     [2]int32
	N     int32
}

func (r Rule) String() string {
	return fmt.Sprintf("<%d,%d> -> <%d,%v>", r.P, r.G, r.P2, r.W[:min(max(r.N, 0), 2)])
}

// PDS is a pushdown system with NumLocs control locations (0..NumLocs-1).
type PDS struct {
	NumLocs int
	Rules   []Rule
}

// AddRule appends a rule, validating its shape.
func (p *PDS) AddRule(r Rule) {
	if r.N < 0 || r.N > 2 {
		panic("pds: rule with more than two right-hand stack symbols")
	}
	p.Rules = append(p.Rules, r)
}

// locSym is an index key (control location or state, stack symbol).
type locSym struct {
	q int
	g fsa.Symbol
}

// Prestar saturates a copy of the query automaton a so that it accepts
// pre*(L(a)): every configuration from which some configuration in L(a) is
// reachable. a's states 0..NumLocs-1 must be the control locations.
//
// One-shot convenience; repeated queries over the same PDS should build a
// PrestarEngine once and reuse it.
func (p *PDS) Prestar(a *fsa.FSA) *fsa.FSA {
	return NewPrestarEngine(p).Prestar(a)
}

// PrestarEngine answers repeated Prestar queries over one fixed PDS, and a
// query touches no Go map:
//
//   - the rule indexes, built once, are CSR arrays keyed by the right-hand
//     head symbol W[0] in rule order; the lookup for a transition
//     (q, γ, q′) scans γ's bucket and keeps the rules whose RHS location
//     is q;
//   - the result automaton's own packed transition index is the set of
//     processed transitions, as in Poststar;
//   - the per-run relations (processed transitions by (state, symbol), the
//     Δ′ rules, and the Δ′ dedup set) are open-addressing tables over
//     packed uint64 keys whose values head flat int32 lists.
//
// Each run draws those tables from an arena on an explicit free list (not
// a sync.Pool), so the engine can account the scratch it retains between
// batches: ScratchBytes reports the arenas' slice capacities, and
// engine.Footprint charges them to the content-addressed cache's byte
// budget. The tables reset in O(1) by a generation stamp, so a warm arena
// keeps its capacity and is not cleared between runs. A single engine is
// safe for concurrent use.
type PrestarEngine struct {
	p *PDS

	// Symbol ids. A symbol in [0, nDense) is its own id. Any other symbol
	// of a rule's W (negative, or too large for tables sized by the rule
	// count) is listed in wide, sorted, and wide[i] has id nDense+i.
	nDense int
	wide   []fsa.Symbol

	// The internal rules whose W[0] has id s are
	// internal[intOff[s]:intOff[s+1]], and likewise for push rules.
	intOff, pushOff []int32
	internal        []internalRule
	push            []pushRule
	// isW1[s] reports whether id s is some push rule's W[1]. Only
	// transitions over such symbols can meet a Δ′ rule, so only they are
	// indexed by (state, symbol).
	isW1    []bool
	classes []dynClass
	pops    []fsa.Transition

	mu   sync.Mutex
	free []*prestarArena
	// sizes, set by SizeFrom, is what an arena built before any run has
	// reserved: another engine's high-water marks.
	sizes ArenaSizes
}

// ArenaSizes are the high-water marks of a Prestar run: its result's
// transition count and location 0's out-list length, its (state, symbol)
// pairs and list nodes, and its registered Δ′ classes. A few integers,
// they let an engine over a nearly identical PDS — the next version of an
// edited program — reserve its first run's scratch and result at once
// instead of growing them from nothing.
type ArenaSizes struct {
	Trans, Out0, Pairs, Nodes, DynSeen int
}

func (s ArenaSizes) max(o ArenaSizes) ArenaSizes {
	return ArenaSizes{
		Trans: max(s.Trans, o.Trans), Out0: max(s.Out0, o.Out0), Pairs: max(s.Pairs, o.Pairs),
		Nodes: max(s.Nodes, o.Nodes), DynSeen: max(s.DynSeen, o.DynSeen),
	}
}

// Sizes returns the largest high-water marks of the latest runs of the
// engine's idle arenas, or, before any run has finished, what SizeFrom
// handed it. Inherited marks thus last only until the engine's own first
// run, so a chain of engines follows the program's current size.
func (e *PrestarEngine) Sizes() ArenaSizes {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.free) == 0 {
		return e.sizes
	}
	var s ArenaSizes
	for _, ar := range e.free {
		s = s.max(ar.last)
	}
	return s
}

// SizeFrom has the engine's first arena reserve sizes: call it before the
// engine's first query. Only the numbers pass between engines; each keeps
// its own arenas.
func (e *PrestarEngine) SizeFrom(sizes ArenaSizes) {
	e.mu.Lock()
	e.sizes = sizes
	e.mu.Unlock()
}

type internalRule struct {
	p2, p int32 // RHS and LHS control locations
	g     int32 // LHS stack symbol
}

type pushRule struct {
	p2    int32 // RHS control location
	class int32 // index into PrestarEngine.classes
}

// dynClass is one distinct (P, G, W[1]) among the push rules. A push rule
// <P, G> ↪ <P2, γ W[1]> meeting a transition (P2, γ, q) registers the
// dynamic pseudo-internal rule Δ′ <P, G> → <q, W[1]>, which depends only on
// the class and q; push rules of one class register the same Δ′ rules.
type dynClass struct {
	p  int32
	w1 int32 // symbol id of W[1]
	g  int32
}

// NewPrestarEngine indexes the rules of p for repeated Prestar queries. It
// panics if a rule names a control location outside [0, p.NumLocs).
func NewPrestarEngine(p *PDS) *PrestarEngine {
	e := &PrestarEngine{p: p}
	// Symbols below limit index the per-symbol tables directly, which keeps
	// those tables (and each arena's qSym) O(|rules|) long.
	limit := 4*len(p.Rules) + 64
	var nPop, nPush int
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.P < 0 || int(r.P) >= p.NumLocs || r.P2 < 0 || int(r.P2) >= p.NumLocs {
			panic(fmt.Sprintf("pds: rule %v names a location outside [0, %d)", *r, p.NumLocs))
		}
		switch r.N {
		case 0:
			nPop++
		case 2:
			nPush++
		}
		for _, s := range r.W[:r.N] {
			if s >= 0 && int(s) < limit {
				e.nDense = max(e.nDense, int(s)+1)
			} else {
				e.wide = append(e.wide, fsa.Symbol(s))
			}
		}
	}
	slices.Sort(e.wide)
	e.wide = slices.Compact(e.wide)
	n := e.nDense + len(e.wide)
	offs := make([]int32, 2*(n+1))
	e.intOff, e.pushOff = offs[:n+1:n+1], offs[n+1:]
	e.isW1 = make([]bool, n)
	e.pops = make([]fsa.Transition, 0, nPop)

	// pushes[k] is the k-th push rule in rule order, with its ordinal k.
	type pushOrd struct{ rule, ord int32 }
	pushes := make([]pushOrd, 0, nPush)
	for i := range p.Rules {
		r := &p.Rules[i]
		switch r.N {
		case 0:
			e.pops = append(e.pops, fsa.Transition{From: int(r.P), Sym: fsa.Symbol(r.G), To: int(r.P2)})
		case 1:
			e.intOff[e.symID(fsa.Symbol(r.W[0]))+1]++
		case 2:
			e.pushOff[e.symID(fsa.Symbol(r.W[0]))+1]++
			e.isW1[e.symID(fsa.Symbol(r.W[1]))] = true
			pushes = append(pushes, pushOrd{rule: int32(i), ord: int32(len(pushes))})
		}
	}
	for s := range n {
		e.intOff[s+1] += e.intOff[s]
		e.pushOff[s+1] += e.pushOff[s]
	}

	shape := func(i int32) dynClass {
		r := &p.Rules[i]
		return dynClass{p: r.P, w1: int32(e.symID(fsa.Symbol(r.W[1]))), g: r.G}
	}
	slices.SortFunc(pushes, func(x, y pushOrd) int {
		a, b := shape(x.rule), shape(y.rule)
		return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.g, b.g), cmp.Compare(a.w1, b.w1))
	})
	nClasses := 0
	for k, x := range pushes {
		if k == 0 || shape(x.rule) != shape(pushes[k-1].rule) {
			nClasses++
		}
	}
	e.classes = make([]dynClass, 0, nClasses)
	classOf := make([]int32, len(pushes)) // by push ordinal
	for k, x := range pushes {
		if c := shape(x.rule); k == 0 || c != e.classes[len(e.classes)-1] {
			e.classes = append(e.classes, c)
		}
		classOf[x.ord] = int32(len(e.classes) - 1)
	}

	// Place each rule at its bucket's cursor, the bucket's start advanced
	// past the rules already placed; shifting the offsets by one slot
	// afterwards restores the starts.
	e.internal = make([]internalRule, e.intOff[n])
	e.push = make([]pushRule, e.pushOff[n])
	k := 0
	for i := range p.Rules {
		r := &p.Rules[i]
		switch r.N {
		case 1:
			s := e.symID(fsa.Symbol(r.W[0]))
			e.internal[e.intOff[s]] = internalRule{p2: r.P2, p: r.P, g: r.G}
			e.intOff[s]++
		case 2:
			s := e.symID(fsa.Symbol(r.W[0]))
			e.push[e.pushOff[s]] = pushRule{p2: r.P2, class: classOf[k]}
			e.pushOff[s]++
			k++
		}
	}
	copy(e.intOff[1:], e.intOff[:n])
	copy(e.pushOff[1:], e.pushOff[:n])
	e.intOff[0], e.pushOff[0] = 0, 0
	return e
}

// symID returns the id of symbol s, or -1 when no rule has s in its W.
func (e *PrestarEngine) symID(s fsa.Symbol) int {
	if uint64(s) < uint64(e.nDense) {
		return int(s)
	}
	if i, ok := slices.BinarySearch(e.wide, s); ok {
		return e.nDense + i
	}
	return -1
}

// prestarArena holds the per-run state, reused across runs at its
// high-water capacity.
type prestarArena struct {
	work []fsa.Transition

	// The query's transitions, sorted, and which have been processed.
	// qSym[γ] (qWide for γ outside [0, nDense)) counts the unprocessed
	// ones over γ that leave a control location: only those can be
	// derived again by a rule.
	qs    []fsa.Transition
	qDone []bool
	qSym  []int32
	qWide int32

	pairs   stampTable // (state, symbol id) → index into lists
	lists   []pairLists
	nodes   []listNode
	dynSeen stampTable // (Δ′ class, target state) registered

	// last holds the high-water marks of the arena's previous run. Its
	// result's transition count and location 0's out-list length, where
	// most saturated transitions start (in the SDG encoding, every rule but
	// the formal-out pops), are what the next run reserves up front instead
	// of growing them a transition at a time.
	last ArenaSizes
}

func (ar *prestarArena) reset() {
	// A finished run leaves every count at zero, but one cut short by a
	// panic may not.
	for _, t := range ar.qs {
		if uint64(t.Sym) < uint64(len(ar.qSym)) {
			ar.qSym[t.Sym] = 0
		}
	}
	ar.qWide = 0
	ar.work = ar.work[:0]
	ar.qs = ar.qs[:0]
	ar.lists = ar.lists[:0]
	ar.nodes = ar.nodes[:0]
	ar.pairs.reset()
	ar.dynSeen.reset()
}

// bytes reports the heap the arena retains: the capacity of its slices.
func (ar *prestarArena) bytes() int64 {
	return int64(cap(ar.work)+cap(ar.qs))*int64(unsafe.Sizeof(fsa.Transition{})) +
		int64(cap(ar.qDone)) + 4*int64(cap(ar.qSym)) +
		int64(cap(ar.pairs.slots)+cap(ar.dynSeen.slots))*int64(unsafe.Sizeof(stampSlot{})) +
		int64(cap(ar.lists))*int64(unsafe.Sizeof(pairLists{})) +
		int64(cap(ar.nodes))*int64(unsafe.Sizeof(listNode{}))
}

// qCount returns the counter of unprocessed query transitions over sym.
func (ar *prestarArena) qCount(sym fsa.Symbol) *int32 {
	if uint64(sym) < uint64(len(ar.qSym)) {
		return &ar.qSym[sym]
	}
	return &ar.qWide
}

// pair returns the index of the lists of (state, symbol id s), adding
// empty ones on first use.
func (ar *prestarArena) pair(state, s int) int32 {
	i, added := ar.pairs.upsert(uint64(state)<<32|uint64(s), int32(len(ar.lists)))
	if added {
		ar.lists = append(ar.lists, pairLists{rel: emptyList, dyn: emptyList})
	}
	return i
}

func (e *PrestarEngine) getArena() *prestarArena {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		ar := e.free[n-1]
		e.free = e.free[:n-1]
		return ar
	}
	ar := &prestarArena{qSym: make([]int32, e.nDense), last: e.sizes}
	if sz := e.sizes; sz.Pairs > 0 {
		ar.pairs.reserve(sz.Pairs)
		ar.dynSeen.reserve(sz.DynSeen)
		ar.lists = make([]pairLists, 0, sz.Pairs)
		ar.nodes = make([]listNode, 0, sz.Nodes)
	}
	return ar
}

func (e *PrestarEngine) putArena(ar *prestarArena) {
	ar.reset()
	e.mu.Lock()
	e.free = append(e.free, ar)
	e.mu.Unlock()
}

// scratchRuleBytes is the scratch one arena retains per PDS rule once
// queries have run: after every per-procedure printf criterion and every
// 13th vertex of the 8 Siemens suites and gzip, an arena held 8–20 bytes
// per rule, 13.5 over the whole corpus.
const scratchRuleBytes = 12

// ScratchBytes reports the heap retained by the engine's pooled arenas
// between queries. Arenas checked out by in-flight queries are not
// counted; between batches every arena is on the free list, which is when
// cache byte budgets are enforced.
func (e *PrestarEngine) ScratchBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, ar := range e.free {
		n += ar.bytes()
	}
	return n
}

// ScratchProvision estimates the steady-state scratch of a single arena
// before any query has run: saturation materializes rel transitions in
// proportion to the rules that derive them, so a freshly built engine
// charged into a byte-budgeted cache reserves this much for the scratch
// its first queries will pin. Without it, a cache would charge engines at
// insert time (when ScratchBytes is still zero) and then silently exceed
// its budget once traffic warms the arenas.
func (e *PrestarEngine) ScratchProvision() int64 {
	return int64(len(e.p.Rules)) * scratchRuleBytes
}

// Prestar runs the saturation against query automaton a, returning a fresh
// result automaton; a is left as it was.
func (e *PrestarEngine) Prestar(a *fsa.FSA) *fsa.FSA { return e.PrestarInPlace(a.Clone()) }

// PrestarInPlace is Prestar for a caller that does not read the query
// again: it saturates a itself and returns it.
func (e *PrestarEngine) PrestarInPlace(a *fsa.FSA) *fsa.FSA {
	res := a
	for res.NumStates() < e.p.NumLocs {
		res.AddState()
	}
	if res.NumStates() > math.MaxInt32 {
		panic("pds: Prestar automaton exceeds the int32 state range")
	}
	ar := e.getArena()
	defer e.putArena(ar)
	s := saturation{e: e, ar: ar, res: res}
	res.Reserve(ar.last.Trans)
	if e.p.NumLocs > 0 {
		res.ReserveOut(0, max(0, ar.last.Out0-len(res.Out(0))))
	}

	// The worklist is LIFO and the query's transitions go in first, so
	// they sit below everything else; they are taken from qs, last first,
	// whenever work runs dry. They are read before the saturation adds
	// any.
	a.Each(func(t fsa.Transition) { ar.qs = append(ar.qs, t) })
	slices.SortFunc(ar.qs, cmpTransition)
	ar.qDone = slices.Grow(ar.qDone[:0], len(ar.qs))[:len(ar.qs)]
	clear(ar.qDone)
	for _, t := range ar.qs {
		if t.From < e.p.NumLocs {
			*ar.qCount(t.Sym)++
		}
	}
	ar.work = append(ar.work, e.pops...)

	next := len(ar.qs)
	for {
		var t fsa.Transition
		if n := len(ar.work); n > 0 {
			t = ar.work[n-1]
			ar.work = ar.work[:n-1]
			if !res.Add(t.From, t.Sym, t.To) {
				j := s.pending(t)
				if j < 0 {
					continue
				}
				s.done(j)
			}
		} else if next > 0 {
			next--
			if ar.qDone[next] {
				continue
			}
			s.done(next)
			t = ar.qs[next]
		} else {
			ar.last = ArenaSizes{Trans: res.NumTransitions(), Pairs: ar.pairs.n, Nodes: len(ar.nodes), DynSeen: ar.dynSeen.n}
			if e.p.NumLocs > 0 {
				ar.last.Out0 = len(res.Out(0))
			}
			return res
		}
		s.process(t)
	}
}

// saturation is one Prestar run.
type saturation struct {
	e   *PrestarEngine
	ar  *prestarArena
	res *fsa.FSA
}

// pending returns the index in qs of t if t is a query transition not yet
// processed, else -1. Every other transition in res has been processed.
// t comes from a pop rule or is derived by a rule, so it leaves a control
// location, and the per-symbol count covers it.
func (s *saturation) pending(t fsa.Transition) int {
	if *s.ar.qCount(t.Sym) == 0 {
		return -1
	}
	j, ok := slices.BinarySearchFunc(s.ar.qs, t, cmpTransition)
	if !ok || s.ar.qDone[j] {
		return -1
	}
	return j
}

func (s *saturation) done(j int) {
	s.ar.qDone[j] = true
	if t := s.ar.qs[j]; t.From < s.e.p.NumLocs {
		*s.ar.qCount(t.Sym)--
	}
}

// push adds t to the worklist unless it has been processed.
func (s *saturation) push(t fsa.Transition) {
	if s.res.Has(t.From, t.Sym, t.To) && s.pending(t) < 0 {
		return
	}
	s.ar.work = append(s.ar.work, t)
}

// process draws the consequences of the newly processed transition t.
func (s *saturation) process(t fsa.Transition) {
	e, ar := s.e, s.ar
	id := e.symID(t.Sym)
	if id < 0 {
		return
	}
	k := int32(-1)
	if e.isW1[id] {
		k = ar.pair(t.From, id)
		ar.lists[k].rel.add(&ar.nodes, int32(t.To))
	}
	for _, r := range e.internal[e.intOff[id]:e.intOff[id+1]] {
		if int(r.p2) == t.From {
			s.push(fsa.Transition{From: int(r.p), Sym: fsa.Symbol(r.g), To: t.To})
		}
	}
	if k >= 0 {
		for n := ar.lists[k].dyn.head; n >= 0; n = ar.nodes[n].next {
			c := &e.classes[ar.nodes[n].val]
			s.push(fsa.Transition{From: int(c.p), Sym: fsa.Symbol(c.g), To: t.To})
		}
	}
	for _, r := range e.push[e.pushOff[id]:e.pushOff[id+1]] {
		if int(r.p2) != t.From {
			continue
		}
		// Register Δ′ rule <c.p, c.g> → <t.To, W[1]>.
		if _, added := ar.dynSeen.upsert(uint64(r.class)<<32|uint64(t.To), 0); !added {
			continue
		}
		c := &e.classes[r.class]
		dk := ar.pair(t.To, int(c.w1))
		ar.lists[dk].dyn.add(&ar.nodes, r.class)
		for n := ar.lists[dk].rel.head; n >= 0; n = ar.nodes[n].next {
			s.push(fsa.Transition{From: int(c.p), Sym: fsa.Symbol(c.g), To: int(ar.nodes[n].val)})
		}
	}
}

func cmpTransition(a, b fsa.Transition) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Sym, b.Sym), cmp.Compare(a.To, b.To))
}

// stampTable is an open-addressing hash table from packed uint64 keys to
// int32 values. A slot is live only while it carries the table's current
// generation, so reset empties the table in O(1) without touching the
// slots.
type stampTable struct {
	slots []stampSlot
	gen   uint32 // ≥ 1 once slots exist; zero marks a never-written slot
	n     int
}

type stampSlot struct {
	key uint64
	gen uint32
	val int32
}

func (t *stampTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: slots from 2^32 runs ago would look live
		clear(t.slots)
		t.gen = 1
	}
}

// upsert returns the value stored under key and false, or, when key is
// absent, stores val under it and returns val and true.
func (t *stampTable) upsert(key uint64, val int32) (int32, bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = stampSlot{key: key, gen: t.gen, val: val}
			t.n++
			return val, true
		}
		if s.key == key {
			return s.val, false
		}
	}
}

// reserve sizes an empty table for n entries without growing.
func (t *stampTable) reserve(n int) {
	size := 64
	for 4*(n+1) > 3*size {
		size *= 2
	}
	t.slots = make([]stampSlot, size)
	t.gen = max(t.gen, 1)
}

// grow doubles the slot array and re-inserts the live slots.
func (t *stampTable) grow() {
	old := t.slots
	t.slots = make([]stampSlot, max(64, 2*len(old)))
	t.gen = max(t.gen, 1)
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := (s.key * 0x9E3779B97F4A7C15) >> 32 & mask
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// list is a linked list of int32 values in a flat node arena. It appends
// at the tail, so it iterates in insertion order.
type list struct{ head, tail int32 }

var emptyList = list{head: -1, tail: -1}

type listNode struct{ val, next int32 }

func (l *list) add(nodes *[]listNode, v int32) {
	n := int32(len(*nodes))
	*nodes = append(*nodes, listNode{val: v, next: -1})
	if l.tail < 0 {
		l.head = n
	} else {
		(*nodes)[l.tail].next = n
	}
	l.tail = n
}

// pairLists are the lists of one (state q, symbol γ): rel holds each q′
// with (q, γ, q′) processed, and dyn the classes of the Δ′ rules
// registered with right-hand side <q, γ>.
type pairLists struct{ rel, dyn list }

// Poststar saturates a copy of the query automaton a so that it accepts
// post*(L(a)): every configuration reachable from some configuration in
// L(a). New intermediate states are created for push rules; epsilon
// transitions appear in the result (callers may RemoveEpsilon).
//
// The saturation runs dense: the result automaton's packed transition
// index doubles as the rel-membership set (Add reports newness, so no
// separate seen-map is kept), and the epsilon/composition indexes are
// state-indexed slices — every state is known up front, the query's plus
// one intermediate state per push-rule (p′, γ′).
func (p *PDS) Poststar(a *fsa.FSA) *fsa.FSA {
	res := a.Clone()
	for res.NumStates() < p.NumLocs {
		res.AddState()
	}

	// Phase I: one new state per (p′, γ′) of a push rule.
	mid := map[locSym]int{}
	for _, r := range p.Rules {
		if r.N == 2 {
			k := locSym{int(r.P2), fsa.Symbol(r.W[0])}
			if _, ok := mid[k]; !ok {
				mid[k] = res.AddState()
			}
		}
	}

	// Index rules by LHS (p, γ).
	byLHS := map[locSym][]Rule{}
	for _, r := range p.Rules {
		k := locSym{int(r.P), fsa.Symbol(r.G)}
		byLHS[k] = append(byLHS[k], r)
	}

	n := res.NumStates()
	// epsInto[q] = control locations p with (p, ε, q) in rel.
	epsInto := make([][]int32, n)
	// relFrom[q] = non-eps transitions (sym, to) leaving q.
	type symTo struct {
		sym fsa.Symbol
		to  int
	}
	relFrom := make([][]symTo, n)

	// Every transition enters rel (= res) exactly once, when Add first
	// admits it; the worklist holds each admitted transition until its
	// consequences are drawn.
	var work []fsa.Transition
	pushT := func(t fsa.Transition) {
		if res.Add(t.From, t.Sym, t.To) {
			work = append(work, t)
		}
	}
	a.Each(func(t fsa.Transition) {
		if t.Sym == fsa.Epsilon {
			panic("pds: query automaton must not contain epsilon transitions")
		}
		// Already present in the clone; seed the worklist directly.
		work = append(work, t)
	})

	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]

		if t.Sym != fsa.Epsilon {
			relFrom[t.From] = append(relFrom[t.From], symTo{t.Sym, t.To})
			for _, r := range byLHS[locSym{t.From, t.Sym}] {
				p2, w0, w1 := int(r.P2), fsa.Symbol(r.W[0]), fsa.Symbol(r.W[1])
				switch r.N {
				case 0:
					pushT(fsa.Transition{From: p2, Sym: fsa.Epsilon, To: t.To})
				case 1:
					pushT(fsa.Transition{From: p2, Sym: w0, To: t.To})
				case 2:
					m := mid[locSym{p2, w0}]
					pushT(fsa.Transition{From: p2, Sym: w0, To: m})
					pushT(fsa.Transition{From: m, Sym: w1, To: t.To})
				}
			}
			// Compose with earlier epsilon transitions ending at t.From.
			for _, q := range epsInto[t.From] {
				pushT(fsa.Transition{From: int(q), Sym: t.Sym, To: t.To})
			}
		} else {
			epsInto[t.To] = append(epsInto[t.To], int32(t.From))
			for _, st := range relFrom[t.To] {
				pushT(fsa.Transition{From: t.From, Sym: st.sym, To: st.to})
			}
		}
	}
	return res
}
