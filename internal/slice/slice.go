// Package slice implements closure slicing of SDGs: summary-edge
// computation and the two-phase context-sensitive interprocedural backward
// slicing algorithm of Horwitz, Reps, and Binkley (1990), plus a
// context-insensitive Weiser-style executable slice used as a baseline in
// the paper's §5. Summary edges are this package's own product: the SDG
// never holds them.
package slice

import (
	"slices"
	"sort"

	"specslice/internal/sdg"
)

// VSet is a set of SDG vertices.
type VSet map[sdg.VertexID]bool

// Sorted returns the members in ascending order.
func (s VSet) Sorted() []sdg.VertexID {
	out := make([]sdg.VertexID, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports set equality.
func (s VSet) Equal(o VSet) bool {
	if len(s) != len(o) {
		return false
	}
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

// Clone copies the set.
func (s VSet) Clone() VSet {
	c := make(VSet, len(s))
	for v := range s {
		c[v] = true
	}
	return c
}

// Summaries is the HRB summary-edge relation of one graph: an edge
// actual-in → actual-out at a call site for every same-level realizable
// path from the matching formal-in to the matching formal-out. It lives
// outside the graph (Alg. 1's pushdown encoding has no rule for it; only
// the closure slice walks it) and is immutable once computed, so any
// number of goroutines may slice through it.
type Summaries struct {
	// into[start[v]:start[v+1]] lists, in ascending order, the actual-ins
	// with a summary edge into vertex v.
	start []int32
	into  []sdg.VertexID
}

// Into returns the actual-ins with a summary edge into v, in ascending
// order; it is empty unless v is an actual-out.
func (s *Summaries) Into(v sdg.VertexID) []sdg.VertexID {
	return s.into[s.start[v]:s.start[v+1]]
}

// ComputeSummaries runs the HRB summary worklist over g, which it only
// reads.
func ComputeSummaries(g *sdg.Graph) *Summaries {
	type pair struct {
		v  sdg.VertexID
		fo sdg.VertexID
	}
	seen := map[pair]bool{}
	// pairsFrom[v] lists the formal-outs reachable same-level from v.
	pairsFrom := map[sdg.VertexID][]sdg.VertexID{}
	var work []pair
	add := func(v, fo sdg.VertexID) {
		p := pair{v, fo}
		if seen[p] {
			return
		}
		seen[p] = true
		pairsFrom[v] = append(pairsFrom[v], fo)
		work = append(work, p)
	}
	callers := make([][]*sdg.Site, len(g.Procs))
	for i, p := range g.Procs {
		callers[i] = g.SiteCalls(p.Name)
		for _, fo := range p.FormalOuts {
			add(fo, fo)
		}
	}
	// A (formal-in, formal-out) pair is processed once and maps to a
	// distinct (actual-in, actual-out) pair at each site, so every summary
	// edge is found exactly once.
	into := make([][]sdg.VertexID, g.NumVertices())
	n := 0
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if fi := &g.Vertices[it.v]; fi.Kind == sdg.KindFormalIn {
			fo := &g.Vertices[it.fo]
			// The site's matching actuals, by binary search over the
			// shared actual/formal ordering invariant (sdg.Site docs).
			for _, site := range callers[fi.Proc] {
				ai, ok1 := site.ActualInFor(g, fi)
				ao, ok2 := site.ActualOutFor(g, fo)
				if !ok1 || !ok2 {
					continue
				}
				into[ao] = append(into[ao], ai)
				n++
				for _, fo2 := range pairsFrom[ao] {
					add(ai, fo2)
				}
			}
		}
		for _, e := range g.In(it.v) {
			if e.Kind == sdg.EdgeControl || e.Kind == sdg.EdgeFlow {
				add(e.From, it.fo)
			}
		}
		for _, ai := range into[it.v] {
			add(ai, it.fo)
		}
	}
	s := &Summaries{start: make([]int32, len(into)+1), into: make([]sdg.VertexID, 0, n)}
	for v, ins := range into {
		slices.Sort(ins)
		s.into = append(s.into, ins...)
		s.start[v+1] = int32(len(s.into))
	}
	return s
}

// Backward computes the context-sensitive backward closure slice of g with
// respect to the criterion vertices, using the HRB two-phase algorithm
// over g's edges plus its summary edges s.
func Backward(g *sdg.Graph, s *Summaries, criterion []sdg.VertexID) VSet {
	// Phase 1: ascend — follow all edges backward except parameter-out.
	phase1 := reach(g, s, criterion, nil, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeParamOut
	})
	// Phase 2: descend — follow all edges backward except call and
	// parameter-in.
	phase2 := reach(g, s, phase1.Sorted(), phase1, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeCall && k != sdg.EdgeParamIn
	})
	return phase2
}

// reach closes seeds backward over the followed edge kinds and every
// summary edge.
func reach(g *sdg.Graph, s *Summaries, seeds []sdg.VertexID, init VSet, follow func(sdg.EdgeKind) bool) VSet {
	out := VSet{}
	if init != nil {
		out = init.Clone()
	}
	var work []sdg.VertexID
	visit := func(v sdg.VertexID) {
		if !out[v] {
			out[v] = true
			work = append(work, v)
		}
	}
	for _, v := range seeds {
		out[v] = true
		work = append(work, v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.In(v) {
			if follow(e.Kind) {
				visit(e.From)
			}
		}
		for _, ai := range s.Into(v) {
			visit(ai)
		}
	}
	return out
}

// Weiser computes a context-insensitive executable backward slice in the
// style of Weiser's algorithm as characterized by Binkley: call-sites are
// atomic (one parameter in the slice pulls in all parameters of the site and
// the callee's full interface), and calling contexts are not distinguished.
func Weiser(g *sdg.Graph, criterion []sdg.VertexID) VSet {
	out := VSet{}
	var work []sdg.VertexID
	push := func(v sdg.VertexID) {
		if !out[v] {
			out[v] = true
			work = append(work, v)
		}
	}
	for _, v := range criterion {
		push(v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.In(v) {
			push(e.From)
		}
		// Atomicity: any vertex of a call site pulls in the call vertex and
		// every actual parameter of that site.
		vx := &g.Vertices[v]
		if vx.Site >= 0 {
			site := g.Sites[vx.Site]
			push(site.CallVertex)
			for _, ai := range site.ActualIns {
				push(ai)
			}
		}
		// A sliced procedure keeps its full declared parameter list.
		if vx.Kind == sdg.KindEntry {
			for _, fi := range g.Procs[vx.Proc].FormalIns {
				push(fi)
			}
		}
	}
	return out
}
