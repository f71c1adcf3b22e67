package fsa

import "sort"

// Minimize returns the minimal DFA for the automaton's language. The input
// may be any automaton; it is determinized and trimmed first. The result is
// deterministic, trim, and unique up to state renaming. Minimization is
// Hopcroft's partition refinement over transitions (see pipeline.go).
func (a *FSA) Minimize() *FSA {
	var d *FSA
	if a.IsDeterministic() {
		d = a.Trim()
	} else {
		d = a.RemoveEpsilon().Determinize().trimInPlace()
	}
	if d.numStates == 0 {
		return d
	}
	ar := getArena()
	defer putArena(ar)
	adj := buildAdjacency(d, false, ar)
	p := hopcroft(&adj, d.finals, ar)
	return quotient(&adj, &p, d.Starts()[0], d.finals, false, ar)
}

// MinimizeMoore is a reference implementation of DFA minimization by
// straightforward partition refinement (Moore's algorithm). It is used as a
// test oracle for Hopcroft's algorithm.
func (a *FSA) MinimizeMoore() *FSA {
	d := a
	if !d.IsDeterministic() {
		d = d.RemoveEpsilon().Determinize()
	}
	d = d.Trim()
	n := d.numStates
	if n == 0 {
		return d
	}
	alphabet := d.Alphabet()
	dead := n
	total := n + 1
	succ := make([]map[Symbol]int, total)
	for s := 0; s < n; s++ {
		succ[s] = map[Symbol]int{}
		for _, t := range d.out[s] {
			succ[s][t.Sym] = t.To
		}
	}
	succ[dead] = map[Symbol]int{}
	cls := make([]int, total)
	for s := 0; s < n; s++ {
		if d.IsFinal(s) {
			cls[s] = 1
		}
	}
	for changed := true; changed; {
		changed = false
		type sig struct {
			own  int
			dest string
		}
		index := map[sig]int{}
		next := make([]int, total)
		for s := 0; s < total; s++ {
			dest := ""
			for _, sym := range alphabet {
				to, ok := succ[s][sym]
				if !ok {
					to = dead
				}
				dest += itoa(cls[to]) + ","
			}
			sg := sig{cls[s], dest}
			id, ok := index[sg]
			if !ok {
				id = len(index)
				index[sg] = id
			}
			next[s] = id
		}
		for s := 0; s < total; s++ {
			if next[s] != cls[s] {
				changed = true
			}
		}
		cls = next
	}
	deadCls := cls[dead]
	remap := map[int]int{}
	m := New(0)
	order := make([]int, 0, n)
	for s := 0; s < n; s++ {
		order = append(order, s)
	}
	sort.Ints(order)
	for _, s := range order {
		if cls[s] == deadCls {
			continue
		}
		if _, ok := remap[cls[s]]; !ok {
			remap[cls[s]] = m.AddState()
		}
	}
	for s := 0; s < n; s++ {
		from, ok := remap[cls[s]]
		if !ok {
			continue
		}
		for _, t := range d.out[s] {
			if to, ok := remap[cls[t.To]]; ok {
				m.Add(from, t.Sym, to)
			}
		}
	}
	if sb, ok := remap[cls[d.Starts()[0]]]; ok {
		m.SetStart(sb)
	}
	for _, f := range d.Finals() {
		if fb, ok := remap[cls[f]]; ok {
			m.SetFinal(fb)
		}
	}
	return m.trimInPlace()
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b []byte
	for x > 0 {
		b = append([]byte{byte('0' + x%10)}, b...)
		x /= 10
	}
	return string(b)
}

// Intersect returns the product automaton accepting L(a) ∩ L(b). Epsilon
// transitions are removed first.
func Intersect(a, b *FSA) *FSA {
	a = a.RemoveEpsilon()
	b = b.RemoveEpsilon()
	type pair struct{ x, y int }
	index := map[pair]int{}
	r := New(0)
	var work []pair
	get := func(p pair) int {
		if i, ok := index[p]; ok {
			return i
		}
		i := r.AddState()
		index[p] = i
		if a.IsFinal(p.x) && b.IsFinal(p.y) {
			r.SetFinal(i)
		}
		work = append(work, p)
		return i
	}
	for _, sa := range a.Starts() {
		for _, sb := range b.Starts() {
			r.SetStart(get(pair{sa, sb}))
		}
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		from := index[p]
		for _, ta := range a.out[p.x] {
			for _, tb := range b.out[p.y] {
				if ta.Sym == tb.Sym {
					r.Add(from, ta.Sym, get(pair{ta.To, tb.To}))
				}
			}
		}
	}
	return r.trimInPlace()
}

// Union returns an automaton accepting L(a) ∪ L(b).
func Union(a, b *FSA) *FSA {
	r := New(a.numStates + b.numStates)
	off := a.numStates
	a.each(func(t Transition) { r.Add(t.From, t.Sym, t.To) })
	b.each(func(t Transition) { r.Add(t.From+off, t.Sym, t.To+off) })
	for _, s := range a.Starts() {
		r.SetStart(s)
	}
	for _, s := range b.Starts() {
		r.SetStart(s + off)
	}
	for _, s := range a.Finals() {
		r.SetFinal(s)
	}
	for _, s := range b.Finals() {
		r.SetFinal(s + off)
	}
	return r
}

// Complement returns a DFA accepting alphabet* − L(a), over the given
// alphabet (which must cover every symbol of interest).
func (a *FSA) Complement(alphabet []Symbol) *FSA {
	d := a.RemoveEpsilon().Determinize()
	// Complete the DFA with an explicit sink.
	c := d.Clone()
	sink := c.AddState()
	for _, sym := range alphabet {
		c.Add(sink, sym, sink)
	}
	for s := 0; s < c.numStates; s++ {
		seen := map[Symbol]bool{}
		for _, t := range c.out[s] {
			seen[t.Sym] = true
		}
		for _, sym := range alphabet {
			if !seen[sym] {
				c.Add(s, sym, sink)
			}
		}
	}
	// Flip accepting states.
	r := New(c.numStates)
	c.each(func(t Transition) { r.Add(t.From, t.Sym, t.To) })
	for _, s := range c.Starts() {
		r.SetStart(s)
	}
	for s := 0; s < c.numStates; s++ {
		if !c.IsFinal(s) {
			r.SetFinal(s)
		}
	}
	return r
}

// Equal reports language equality, via isomorphism of the minimal DFAs.
func Equal(a, b *FSA) bool {
	ma := a.Minimize()
	mb := b.Minimize()
	if ma.numStates != mb.numStates || ma.finals.count() != mb.finals.count() || ma.NumTransitions() != mb.NumTransitions() {
		return false
	}
	if ma.numStates == 0 {
		return true
	}
	// Both minimal DFAs are trim and deterministic: walk them in lockstep.
	mapping := map[int]int{ma.Starts()[0]: mb.Starts()[0]}
	work := []int{ma.Starts()[0]}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		y := mapping[x]
		if ma.IsFinal(x) != mb.IsFinal(y) {
			return false
		}
		bt := map[Symbol]int{}
		for _, t := range mb.out[y] {
			bt[t.Sym] = t.To
		}
		if len(ma.out[x]) != len(mb.out[y]) {
			return false
		}
		for _, t := range ma.out[x] {
			to, ok := bt[t.Sym]
			if !ok {
				return false
			}
			if prev, seen := mapping[t.To]; seen {
				if prev != to {
					return false
				}
			} else {
				mapping[t.To] = to
				work = append(work, t.To)
			}
		}
	}
	return true
}

// EnumerateWords returns accepted words of length ≤ maxLen, up to maxCount,
// in shortlex order. Useful for finite languages and for sampling tests.
func (a *FSA) EnumerateWords(maxLen, maxCount int) [][]Symbol {
	e := a.RemoveEpsilon()
	var out [][]Symbol
	type item struct {
		states []int
		word   []Symbol
	}
	queue := []item{{states: e.Starts(), word: nil}}
	for len(queue) > 0 && len(out) < maxCount {
		it := queue[0]
		queue = queue[1:]
		final := false
		for _, s := range it.states {
			if e.IsFinal(s) {
				final = true
			}
		}
		if final {
			out = append(out, it.word)
			if len(out) >= maxCount {
				break
			}
		}
		if len(it.word) >= maxLen {
			continue
		}
		moves := map[Symbol]bitset{}
		for _, s := range it.states {
			for _, t := range e.out[s] {
				bs := moves[t.Sym]
				bs.set(t.To)
				moves[t.Sym] = bs
			}
		}
		syms := make([]Symbol, 0, len(moves))
		for s := range moves {
			syms = append(syms, s)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		for _, sym := range syms {
			word := append(append([]Symbol(nil), it.word...), sym)
			queue = append(queue, item{states: moves[sym].members(), word: word})
		}
	}
	return out
}
