package fsa

// Dense automaton pipeline: per-automaton symbol-indexed adjacency (CSR),
// bitset subset construction with an FNV interning table in place of sorted
// string keys, Hopcroft minimization as partition refinement over
// transitions (no dead state, no states × symbols table), and the fused
// reverse→determinize→minimize→reverse chain (MRD) that core.Specialize
// runs per slice request (Alg. 1 lines 4–8). MRD keeps its DFA in arena
// arrays from the subset construction to the refinement and builds one
// *FSA, the result. All scratch is drawn from a pooled arena, so warm
// requests run the whole chain with near-zero per-request allocation — the
// same discipline pds.PrestarEngine applies to the Prestar half of the
// pipeline.

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// pipeArena holds the reusable scratch of one pipeline run: bump-allocated
// int32/uint64 backing for CSR arrays and bitsets, the subset interner, and
// the growable worklists. Arenas are borrowed from pipePool per run; the
// bump offsets reset on borrow while capacities persist, so a warm pipeline
// re-uses the previous run's memory.
type pipeArena struct {
	i32buf []int32
	i32off int
	u64buf []uint64
	u64off int

	symbuf  []Symbol // materialized sorted alphabet (valid until next buildAdjacency)
	work    []int32  // determinize worklist of subset ids
	cwork   []int32  // closure / trim DFS stack
	touched []int    // determinize: dense symbol indexes hit by a subset
	dtr     []dtrans // determinize: the DFA's transitions
	in      interner
}

var pipePool = sync.Pool{New: func() any { return &pipeArena{} }}

func getArena() *pipeArena {
	ar := pipePool.Get().(*pipeArena)
	ar.i32off, ar.u64off = 0, 0
	return ar
}

func putArena(ar *pipeArena) { pipePool.Put(ar) }

// i32 bump-allocates a zeroed []int32. Slices handed out earlier in the same
// run stay valid (they pin the old backing if it is replaced by growth).
func (ar *pipeArena) i32(n int) []int32 {
	if ar.i32off+n > len(ar.i32buf) {
		c := 2 * len(ar.i32buf)
		if c < ar.i32off+n {
			c = ar.i32off + n
		}
		if c < 1024 {
			c = 1024
		}
		ar.i32buf = make([]int32, c)
		ar.i32off = 0
	}
	s := ar.i32buf[ar.i32off : ar.i32off+n : ar.i32off+n]
	ar.i32off += n
	clear(s)
	return s
}

// u64 bump-allocates a zeroed []uint64 (a fixed-width bitset).
func (ar *pipeArena) u64(n int) []uint64 {
	if ar.u64off+n > len(ar.u64buf) {
		c := 2 * len(ar.u64buf)
		if c < ar.u64off+n {
			c = ar.u64off + n
		}
		if c < 256 {
			c = 256
		}
		ar.u64buf = make([]uint64, c)
		ar.u64off = 0
	}
	s := ar.u64buf[ar.u64off : ar.u64off+n : ar.u64off+n]
	ar.u64off += n
	clear(s)
	return s
}

// symbols materializes the automaton's cached alphabet bitset, sorted. The
// buffer is shared per arena: the result is valid only until the next
// buildAdjacency on the same arena.
func (ar *pipeArena) symbols(a *FSA) []Symbol {
	out := ar.symbuf[:0]
	for wi, w := range a.alpha {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &^= 1 << uint(i)
			out = append(out, Symbol(wi<<6+i))
		}
	}
	ar.symbuf = out
	return out
}

// interner deduplicates state sets (fixed-width bitsets) during subset
// construction: an open-addressing table over FNV-hashed set words mapping
// each distinct set to a dense id — replacing the former sorted
// "%d,%d,…"-string keys. Set payloads live concatenated in data.
type interner struct {
	w     int // words per set
	n     int
	data  []uint64
	table []int32 // set id + 1; 0 means empty
}

func (in *interner) init(w int) {
	in.w, in.n = w, 0
	in.data = in.data[:0]
	if len(in.table) < 64 {
		in.table = make([]int32, 64)
	} else {
		clear(in.table)
	}
}

// fnvWords is FNV-1a folded over 64-bit words.
func fnvWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func (in *interner) set(id int) bitset {
	return bitset(in.data[id*in.w : (id+1)*in.w])
}

// lookupOrAdd interns set, reporting its id and whether it was new. The set
// is copied, so the caller may keep mutating its scratch buffer.
func (in *interner) lookupOrAdd(set bitset) (int, bool) {
	mask := uint64(len(in.table) - 1)
	i := fnvWords(set) & mask
	for in.table[i] != 0 {
		id := int(in.table[i] - 1)
		if wordsEqual(in.data[id*in.w:(id+1)*in.w], set) {
			return id, false
		}
		i = (i + 1) & mask
	}
	id := in.n
	in.n++
	in.data = append(in.data, set...)
	in.table[i] = int32(id + 1)
	if 4*in.n >= 3*len(in.table) {
		in.grow()
	}
	return id, true
}

func (in *interner) grow() {
	old := in.table
	in.table = make([]int32, 2*len(old))
	mask := uint64(len(in.table) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		id := int(v - 1)
		i := fnvWords(in.data[id*in.w:(id+1)*in.w]) & mask
		for in.table[i] != 0 {
			i = (i + 1) & mask
		}
		in.table[i] = v
	}
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adjacency is the symbol-indexed dense view of an automaton, built once
// per pipeline stage: per-state non-epsilon out-transitions in CSR form
// with symbols renumbered to dense indexes 0..k-1 (sorted symbol order),
// plus a separate epsilon CSR. With reversed=true it indexes the reversed
// automaton without materializing it.
type adjacency struct {
	n        int
	syms     []Symbol // sorted distinct non-epsilon symbols
	start    []int32  // len n+1: CSR offsets into tsym/tto
	tsym     []int32  // dense symbol index per transition
	tto      []int32
	epsStart []int32 // len n+1
	epsTo    []int32
	hasEps   bool
}

func buildAdjacency(a *FSA, reversed bool, ar *pipeArena) adjacency {
	n := a.numStates
	adj := adjacency{n: n, syms: ar.symbols(a)}
	symIdx := ar.i32(64 * len(a.alpha)) // symbol -> dense index + 1
	for i, s := range adj.syms {
		symIdx[s] = int32(i + 1)
	}
	adj.start = ar.i32(n + 1)
	adj.epsStart = ar.i32(n + 1)
	for from, ts := range a.out {
		for _, t := range ts {
			src := from
			if reversed {
				src = t.To
			}
			if t.Sym == Epsilon {
				adj.epsStart[src+1]++
			} else {
				adj.start[src+1]++
			}
		}
	}
	for s := 0; s < n; s++ {
		adj.start[s+1] += adj.start[s]
		adj.epsStart[s+1] += adj.epsStart[s]
	}
	m, me := int(adj.start[n]), int(adj.epsStart[n])
	adj.tsym = ar.i32(m)
	adj.tto = ar.i32(m)
	adj.epsTo = ar.i32(me)
	adj.hasEps = me > 0
	cur := ar.i32(n)
	cure := ar.i32(n)
	copy(cur, adj.start[:n])
	copy(cure, adj.epsStart[:n])
	for from, ts := range a.out {
		for _, t := range ts {
			src, dst := from, t.To
			if reversed {
				src, dst = t.To, from
			}
			if t.Sym == Epsilon {
				adj.epsTo[cure[src]] = int32(dst)
				cure[src]++
			} else {
				adj.tsym[cur[src]] = symIdx[t.Sym] - 1
				adj.tto[cur[src]] = int32(dst)
				cur[src]++
			}
		}
	}
	return adj
}

// closure expands set across epsilon transitions, in place.
func (adj *adjacency) closure(set bitset, ar *pipeArena) {
	if !adj.hasEps {
		return
	}
	work := ar.cwork[:0]
	for wi, w := range set {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &^= 1 << uint(i)
			work = append(work, int32(wi<<6+i))
		}
	}
	for len(work) > 0 {
		s := int(work[len(work)-1])
		work = work[:len(work)-1]
		for j := adj.epsStart[s]; j < adj.epsStart[s+1]; j++ {
			t := adj.epsTo[j]
			if set[t>>6]&(1<<(uint(t)&63)) == 0 {
				set[t>>6] |= 1 << (uint(t) & 63)
				work = append(work, t)
			}
		}
	}
	ar.cwork = work[:0]
}

// dtrans is one transition of a subset-construction DFA, on the
// adjacency's dense symbol index.
type dtrans struct{ from, sym, to int32 }

// dfa is the subset construction's output, kept in the arena until the
// arena's next determinize: state 0 is the start and every state is
// reachable from it. Each state's transitions are contiguous in trans, in
// ascending symbol order.
type dfa struct {
	n      int
	syms   []Symbol // dense symbol index → symbol
	trans  []dtrans // in creation order
	finals bitset
}

// Determinize performs the subset construction, returning a deterministic
// automaton (single start state, no epsilon transitions, at most one
// transition per (state, symbol)). Missing transitions mean rejection.
func (a *FSA) Determinize() *FSA {
	ar := getArena()
	defer putArena(ar)
	adj := buildAdjacency(a, false, ar)
	d := determinize(&adj, a.starts, a.finals, ar)
	r := New(d.n)
	r.SetStart(0)
	r.finals = d.finals.clone()
	r.Reserve(len(d.trans))
	for _, t := range d.trans {
		r.Add(int(t.from), d.syms[t.sym], int(t.to))
	}
	return r
}

// determinize is the bitset subset construction over a prebuilt adjacency,
// recorded as a dfa in the arena. Subsets are fixed-width bitsets
// deduplicated through the FNV interner. A subset's moves are bucketed by
// dense symbol into lists threaded through one array, so the scratch is
// bounded by the transitions, not by symbols × states. starts/finals are
// read against adj (so a reversed adjacency passes the original finals as
// starts and vice versa).
func determinize(adj *adjacency, starts, finals bitset, ar *pipeArena) dfa {
	w := bitsWords(adj.n)
	ar.in.init(w)
	// seen[si] is the id+1 of the last subset that moved on si; head[si]
	// is then its last move on si + 1, and moveNext chains the rest.
	seen, head := ar.i32(len(adj.syms)), ar.i32(len(adj.syms))
	moveTo, moveNext := ar.i32(len(adj.tto)), ar.i32(len(adj.tto))
	cur := bitset(ar.u64(w))
	copy(cur, starts)
	adj.closure(cur, ar)
	ar.in.lookupOrAdd(cur) // id 0
	trans := ar.dtr[:0]
	work := append(ar.work[:0], 0)
	touched := ar.touched[:0]

	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		touched = touched[:0]
		nm := int32(0)
		// The interned payload is only read here, before lookupOrAdd can
		// grow data.
		set := ar.in.set(int(id))
		for wi, wd := range set {
			for wd != 0 {
				i := bits.TrailingZeros64(wd)
				wd &^= 1 << uint(i)
				s := wi<<6 + i
				for j := adj.start[s]; j < adj.start[s+1]; j++ {
					si := adj.tsym[j]
					if seen[si] != id+1 {
						seen[si], head[si] = id+1, 0
						touched = append(touched, int(si))
					}
					moveTo[nm], moveNext[nm] = adj.tto[j], head[si]
					nm++
					head[si] = nm
				}
			}
		}
		sort.Ints(touched)
		for _, si := range touched {
			clear(cur)
			for x := head[si]; x != 0; x = moveNext[x-1] {
				to := moveTo[x-1]
				cur[to>>6] |= 1 << (uint(to) & 63)
			}
			adj.closure(cur, ar)
			to, isNew := ar.in.lookupOrAdd(cur)
			if isNew {
				work = append(work, int32(to))
			}
			trans = append(trans, dtrans{id, int32(si), int32(to)})
		}
	}
	ar.work, ar.touched, ar.dtr = work[:0], touched[:0], trans

	d := dfa{n: ar.in.n, syms: adj.syms, trans: trans, finals: ar.u64(bitsWords(ar.in.n))}
	for s := 0; s < d.n; s++ {
		if ar.in.set(s).intersects(finals) {
			d.finals[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	return d
}

// trim returns the states of d that reach a final state — every subset is
// reachable from the start by construction — as an adjacency, with their
// finals. Kept states keep their relative order and each keeps its
// transitions' order: the adjacency buildAdjacency reads off the
// materialized DFA after Trim, so MRD and Minimize refine the same input.
// The adjacency's dense symbols are d's, a superset of those it uses.
func (d *dfa) trim(ar *pipeArena) (adjacency, bitset) {
	n0 := d.n
	// Co-reachability: backward from the finals over a CSR of the
	// transitions by target.
	inStart := ar.i32(n0 + 1)
	for _, t := range d.trans {
		inStart[t.to+1]++
	}
	for s := 0; s < n0; s++ {
		inStart[s+1] += inStart[s]
	}
	inFrom := ar.i32(len(d.trans))
	fill := ar.i32(n0)
	copy(fill, inStart[:n0])
	for _, t := range d.trans {
		inFrom[fill[t.to]] = t.from
		fill[t.to]++
	}
	keep := ar.i32(n0) // kept state + 1, once numbered
	work := ar.cwork[:0]
	for s := 0; s < n0; s++ {
		if d.finals.get(s) {
			keep[s] = 1
			work = append(work, int32(s))
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range inFrom[inStart[s]:inStart[s+1]] {
			if keep[p] == 0 {
				keep[p] = 1
				work = append(work, p)
			}
		}
	}
	ar.cwork = work[:0]
	n := 0
	for s := range keep {
		if keep[s] != 0 {
			n++
			keep[s] = int32(n)
		}
	}

	adj := adjacency{n: n, syms: d.syms, start: ar.i32(n + 1)}
	finals := bitset(ar.u64(bitsWords(n)))
	for s, k := range keep {
		if k != 0 && d.finals.get(s) {
			finals[(k-1)>>6] |= 1 << (uint(k-1) & 63)
		}
	}
	// A transition is kept when its target is; its source then is too.
	for _, t := range d.trans {
		if keep[t.to] != 0 {
			adj.start[keep[t.from]]++
		}
	}
	for s := 0; s < n; s++ {
		adj.start[s+1] += adj.start[s]
	}
	adj.tsym, adj.tto = ar.i32(int(adj.start[n])), ar.i32(int(adj.start[n]))
	fill = ar.i32(n)
	copy(fill, adj.start[:n])
	for _, t := range d.trans {
		if to := keep[t.to]; to != 0 {
			f := keep[t.from] - 1
			adj.tsym[fill[f]], adj.tto[fill[f]] = t.sym, to-1
			fill[f]++
		}
	}
	return adj, finals
}

// partition is a refinable partition of the elements 0..n-1 into sets
// (Valmari's data structure): the members of set s are
// elems[first[s]:end[s]], its marked[s] marked members first, and pos
// inverts elems. Every round of marks ends with a split.
type partition struct {
	elems, pos, set    []int32
	first, end, marked []int32
	touched            []int32 // the sets with a marked member
	z                  int32   // set count
}

// newPartition returns the partition of n elements into one set (none
// when n is 0), with room for n sets.
func newPartition(n int, ar *pipeArena) partition {
	p := partition{
		elems: ar.i32(n), pos: ar.i32(n), set: ar.i32(n),
		first: ar.i32(n), end: ar.i32(n), marked: ar.i32(n),
		touched: ar.i32(n)[:0],
	}
	for i := range p.elems {
		p.elems[i], p.pos[i] = int32(i), int32(i)
	}
	if n > 0 {
		p.end[0], p.z = int32(n), 1
	}
	return p
}

// mark moves e into its set's marked prefix. No element is marked twice
// in one round: a cord holds at most one transition per source state, and
// a transition enters one state.
func (p *partition) mark(e int32) {
	s := p.set[e]
	i, j := p.pos[e], p.first[s]+p.marked[s]
	o := p.elems[j]
	p.elems[i], p.pos[o] = o, i
	p.elems[j], p.pos[e] = e, j
	if p.marked[s] == 0 {
		p.touched = append(p.touched, s)
	}
	p.marked[s]++
}

// split cuts every touched set into its marked and unmarked members. The
// smaller part becomes the new set, so an element changes sets O(log n)
// times.
func (p *partition) split() {
	for len(p.touched) > 0 {
		s := p.touched[len(p.touched)-1]
		p.touched = p.touched[:len(p.touched)-1]
		j := p.first[s] + p.marked[s]
		p.marked[s] = 0
		if j == p.end[s] {
			continue
		}
		z := p.z
		p.z++
		if j-p.first[s] <= p.end[s]-j {
			p.first[z], p.end[z], p.first[s] = p.first[s], j, j
		} else {
			p.first[z], p.end[z], p.end[s] = j, p.end[s], j
		}
		for _, e := range p.elems[p.first[z]:p.end[z]] {
			p.set[e] = z
		}
	}
}

// hopcroft partitions the states of a trim DFA into the states of its
// minimal DFA, by Hopcroft's partition refinement in the form Valmari and
// Lehtinen give for partial DFAs (STACS 2008; Valmari, IPL 2012). States
// go into blocks, starting from finals and non-finals, and transitions
// into cords, starting with one cord per symbol. Each cord splits blocks
// by the source states of its transitions, and each new block but the
// first splits cords by the transitions entering it, until every cord
// holds one symbol's transitions into one block. Missing transitions need
// no dead state, so for n states, m transitions and k symbols this takes
// O(n + m log m) time and O(n + m + k) space. The returned blocks are the
// states' set ids.
func hopcroft(adj *adjacency, finals bitset, ar *pipeArena) partition {
	n, m := adj.n, len(adj.tto)
	from := ar.i32(m)
	for s := 0; s < n; s++ {
		for j := adj.start[s]; j < adj.start[s+1]; j++ {
			from[j] = int32(s)
		}
	}
	// The transitions entering each state, as a CSR.
	inStart := ar.i32(n + 1)
	for _, to := range adj.tto {
		inStart[to+1]++
	}
	for s := 0; s < n; s++ {
		inStart[s+1] += inStart[s]
	}
	in := ar.i32(m)
	fill := ar.i32(n)
	copy(fill, inStart[:n])
	for t, to := range adj.tto {
		in[fill[to]] = int32(t)
		fill[to]++
	}

	blocks := newPartition(n, ar)
	for s := 0; s < n; s++ {
		if finals.get(s) {
			blocks.mark(int32(s))
		}
	}
	blocks.split()

	// One cord per symbol in use: a counting sort on the dense index.
	cords := newPartition(m, ar)
	next := ar.i32(len(adj.syms))
	for _, si := range adj.tsym {
		next[si]++
	}
	sum := int32(0)
	for si, c := range next {
		next[si] = sum
		sum += c
	}
	for t, si := range adj.tsym {
		e := next[si]
		next[si]++
		cords.elems[e], cords.pos[t] = int32(t), e
	}
	cords.z = 0
	lo := int32(0)
	for _, hi := range next { // next[si] is now the end of si's run
		if hi > lo {
			cords.first[cords.z], cords.end[cords.z] = lo, hi
			for _, t := range cords.elems[lo:hi] {
				cords.set[t] = cords.z
			}
			cords.z++
		}
		lo = hi
	}

	for c, b := int32(0), int32(1); c < cords.z; c++ {
		for _, t := range cords.elems[cords.first[c]:cords.end[c]] {
			blocks.mark(from[t])
		}
		blocks.split()
		for ; b < blocks.z; b++ {
			for _, s := range blocks.elems[blocks.first[b]:blocks.end[b]] {
				for _, t := range in[inStart[s]:inStart[s+1]] {
					cords.mark(t)
				}
			}
			cords.split()
		}
	}
	return blocks
}

// quotient emits the minimal DFA whose states are the blocks of p over the
// trim DFA adj, or with reversed set its reversal: Alg. 1's A6. Block b's
// transitions are those of its lowest-numbered member, in adjacency
// order; every equivalent member's transitions map onto the same ones.
func quotient(adj *adjacency, p *partition, start int, finals bitset, reversed bool, ar *pipeArena) *FSA {
	rep := ar.i32(int(p.z))
	for s := adj.n - 1; s >= 0; s-- {
		rep[p.set[s]] = int32(s)
	}
	// Size every out list exactly, carved from one allocation.
	deg := ar.i32(int(p.z))
	m := 0
	for b, s := range rep {
		for j := adj.start[s]; j < adj.start[s+1]; j++ {
			from := int32(b)
			if reversed {
				from = p.set[adj.tto[j]]
			}
			deg[from]++
			m++
		}
	}
	q := New(int(p.z))
	back := make([]Transition, m)
	for x, d := range deg {
		q.out[x], back = back[:0:d], back[d:]
	}
	q.Reserve(m)
	for b, s := range rep {
		for j := adj.start[s]; j < adj.start[s+1]; j++ {
			from, to := b, int(p.set[adj.tto[j]])
			if reversed {
				from, to = to, from
			}
			q.Add(from, adj.syms[adj.tsym[j]], to)
		}
	}
	if reversed {
		q.SetFinal(int(p.set[start]))
	} else {
		q.SetStart(int(p.set[start]))
	}
	for s := 0; s < adj.n; s++ {
		switch {
		case !finals.get(s):
		case reversed:
			q.SetStart(int(p.set[s]))
		default:
			q.SetFinal(int(p.set[s]))
		}
	}
	return q
}

// MRDStats reports the fused pipeline's sub-phase breakdown (the automaton
// share of the paper's Fig. 21 timings).
type MRDStats struct {
	// DetStates is the state count of the reversed automaton's DFA before
	// trimming — the §4.2 "determinize shrinks in practice" observable.
	DetStates   int
	Determinize time.Duration
	// Minimize covers trimming the DFA, refining it and building the
	// result from the quotient.
	Minimize time.Duration
}

// MRD computes the minimal reverse-deterministic automaton of a — the
// fused reverse → determinize → minimize → reverse chain of Alg. 1 lines
// 4–8. The reversal is folded into the subset construction's adjacency,
// the DFA stays in arena arrays through trimming and refinement, and the
// result is built once, directly as the reversed quotient: no reversed
// input, DFA, trimmed DFA or unreversed quotient is materialized, and no
// epsilon-removal pass runs.
func MRD(a *FSA) (*FSA, MRDStats) {
	var st MRDStats
	ar := getArena()
	defer putArena(ar)
	t0 := time.Now()
	radj := buildAdjacency(a, true, ar)
	d := determinize(&radj, a.finals, a.starts, ar)
	st.DetStates = d.n
	st.Determinize = time.Since(t0)
	t1 := time.Now()
	adj, finals := d.trim(ar)
	a6 := New(0)
	if adj.n > 0 {
		p := hopcroft(&adj, finals, ar)
		a6 = quotient(&adj, &p, 0, finals, true, ar)
	}
	st.Minimize = time.Since(t1)
	return a6, st
}
