// Package slice implements closure slicing of SDGs: summary-edge
// computation and the two-phase context-sensitive interprocedural
// backward/forward slicing algorithm of Horwitz, Reps, and Binkley (1990),
// plus a context-insensitive Weiser-style executable slice used as a
// baseline in the paper's §5.
package slice

import (
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

// ComputeSummaryEdges adds summary edges (actual-in → actual-out) to g for
// every same-level realizable path from the matching formal-in to the
// matching formal-out, using the HRB worklist algorithm. It is idempotent,
// and a second call on the same graph returns immediately — which also
// makes it safe for concurrent readers once the first call has completed.
func ComputeSummaryEdges(g *sdg.Graph) {
	if g.SummariesComputed() {
		return
	}
	defer g.MarkSummariesComputed()
	summaryFixpoint(g, g.Procs)
}

// ComputeSummaryEdgesPartial completes the summary edges of a graph built
// by sdg.Advance: valid edges inherited from the previous version are
// already present, and only the listed procedures (new-graph indexes,
// sdg.DeltaStats.DirtyProcs) need their formal-out pair propagation
// re-run. Seeding the worklist with just those procedures is sound because
// every call site Advance did not seed has its callee in the dirty set,
// and pair propagation within a clean procedure only ever traverses its
// own PDG plus the (already seeded) summary edges at its sites. Like
// ComputeSummaryEdges, it is idempotent through the graph's
// summaries-computed mark.
func ComputeSummaryEdgesPartial(g *sdg.Graph, procs []int) {
	if g.SummariesComputed() {
		return
	}
	defer g.MarkSummariesComputed()
	seeds := make([]*sdg.Proc, len(procs))
	for i, pi := range procs {
		seeds[i] = g.Procs[pi]
	}
	summaryFixpoint(g, seeds)
}

// summaryFixpoint runs the HRB summary worklist over g, seeding the
// (vertex, formal-out) pairs from the formal-outs of seedProcs.
func summaryFixpoint(g *sdg.Graph, seedProcs []*sdg.Proc) {
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

	for _, p := range seedProcs {
		for _, fo := range p.FormalOuts {
			add(fo, fo)
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vx := g.Vertices[it.v]
		if vx.Kind == sdg.KindFormalIn {
			fi := vx
			fo := g.Vertices[it.fo]
			// The site's matching actuals, by binary search over the
			// shared actual/formal ordering invariant (sdg.Site docs).
			for _, site := range g.SiteCalls(g.Procs[fi.Proc].Name) {
				ai, ok1 := site.ActualInFor(g, fi)
				ao, ok2 := site.ActualOutFor(g, fo)
				if !ok1 || !ok2 {
					continue
				}
				if g.AddEdge(ai, ao, sdg.EdgeSummary) {
					for _, fo2 := range pairsFrom[ao] {
						add(ai, fo2)
					}
				}
			}
		}
		for _, e := range g.In(it.v) {
			switch e.Kind {
			case sdg.EdgeControl, sdg.EdgeFlow, sdg.EdgeSummary:
				add(e.From, it.fo)
			}
		}
	}
}

// Backward computes the context-sensitive backward closure slice of g with
// respect to the criterion vertices, using the HRB two-phase algorithm.
// Summary edges must have been computed (ComputeSummaryEdges).
func Backward(g *sdg.Graph, criterion []sdg.VertexID) VSet {
	// Phase 1: ascend — follow all edges backward except parameter-out.
	phase1 := reach(g, criterion, nil, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeParamOut
	})
	// Phase 2: descend — follow all edges backward except call and
	// parameter-in.
	phase2 := reach(g, phase1.Sorted(), phase1, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeCall && k != sdg.EdgeParamIn
	})
	return phase2
}

// Forward computes the context-sensitive forward closure slice: the vertices
// the criterion may affect. Summary edges must have been computed.
func Forward(g *sdg.Graph, criterion []sdg.VertexID) VSet {
	// Phase 1: follow all edges forward except call and parameter-in
	// (do not descend; ascend via parameter-out).
	phase1 := reachFwd(g, criterion, nil, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeCall && k != sdg.EdgeParamIn
	})
	// Phase 2: follow all edges forward except parameter-out.
	phase2 := reachFwd(g, phase1.Sorted(), phase1, func(k sdg.EdgeKind) bool {
		return k != sdg.EdgeParamOut
	})
	return phase2
}

func reach(g *sdg.Graph, seeds []sdg.VertexID, init VSet, follow func(sdg.EdgeKind) bool) VSet {
	out := VSet{}
	if init != nil {
		out = init.Clone()
	}
	var work []sdg.VertexID
	for _, v := range seeds {
		out[v] = true
		work = append(work, v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.In(v) {
			if !follow(e.Kind) || out[e.From] {
				continue
			}
			out[e.From] = true
			work = append(work, e.From)
		}
	}
	return out
}

func reachFwd(g *sdg.Graph, seeds []sdg.VertexID, init VSet, follow func(sdg.EdgeKind) bool) VSet {
	out := VSet{}
	if init != nil {
		out = init.Clone()
	}
	var work []sdg.VertexID
	for _, v := range seeds {
		out[v] = true
		work = append(work, v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.Out(v) {
			if !follow(e.Kind) || out[e.To] {
				continue
			}
			out[e.To] = true
			work = append(work, e.To)
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
			if e.Kind == sdg.EdgeSummary {
				continue // context-insensitive traversal uses real edges only
			}
			push(e.From)
		}
		// Atomicity: any vertex of a call site pulls in the call vertex and
		// every actual parameter of that site.
		vx := g.Vertices[v]
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
