package core

import (
	"errors"
	"fmt"
	"slices"

	"specslice/internal/fsa"
	"specslice/internal/sdg"
)

// Config is a configuration of the unrolled SDG: a PDG vertex plus the
// stack of pending call-sites, innermost first (the paper writes
// (r23, C3 C1): called from site C3, which was entered from site C1 in
// main).
type Config struct {
	Vertex sdg.VertexID
	Stack  []sdg.SiteID
}

// CriterionSpec describes the slicing criterion as a language of
// configurations; implementations build the query automaton A0.
type CriterionSpec interface {
	buildQuery(e *Encoding) (*fsa.FSA, error)
}

// Configs is an explicit finite criterion: a set of configurations.
type Configs []Config

// Vertices is the common criterion "these PDG vertices, in every calling
// context of the unrolled SDG" (used for the paper's wc and go slices): the
// configurations reachable from main's entry whose vertex is in the set. The
// contexts are read off the encoding's live call graph (see
// Encoding.Reachable).
type Vertices []sdg.VertexID

// SDGVertices is the SDG-level criterion "these PDG vertices with any stack
// whatsoever" — the direct analogue of classic SDG slicing, where the
// criterion is a vertex, not a configuration. Its stack-configuration slice
// projects onto exactly the HRB closure slice.
type SDGVertices []sdg.VertexID

func (c Configs) buildQuery(e *Encoding) (*fsa.FSA, error) {
	if len(c) == 0 {
		return nil, errors.New("core: empty criterion")
	}
	q := fsa.New(e.PDS.NumLocs)
	final := q.AddState()
	q.SetFinal(final)
	for _, cfg := range c {
		if err := checkVertices(e.G, cfg.Vertex); err != nil {
			return nil, err
		}
		cur := 0 // control location p
		syms := []fsa.Symbol{e.VertexSym(cfg.Vertex)}
		for _, s := range cfg.Stack {
			if int(s) < 0 || int(s) >= len(e.G.Sites) {
				return nil, fmt.Errorf("core: criterion site %d out of range", s)
			}
			syms = append(syms, e.SiteSym(s))
		}
		for i, sym := range syms {
			var to int
			if i == len(syms)-1 {
				to = final
			} else {
				to = q.AddState()
			}
			q.Add(cur, sym, to)
			cur = to
		}
	}
	return q, nil
}

func (v SDGVertices) buildQuery(e *Encoding) (*fsa.FSA, error) {
	if len(v) == 0 {
		return nil, errors.New("core: empty criterion")
	}
	if err := checkVertices(e.G, v...); err != nil {
		return nil, err
	}
	// Accept v·Σ_sites* for each vertex.
	q := fsa.New(e.PDS.NumLocs)
	q.Reserve(len(v) + len(e.G.Sites))
	final := q.AddState()
	q.SetFinal(final)
	for _, vid := range v {
		q.Add(0, e.VertexSym(vid), final)
	}
	for _, s := range e.G.Sites {
		q.Add(final, e.SiteSym(s.ID), final)
	}
	return q, nil
}

// buildQuery builds A0 = (v·Σ_sites*) ∩ L(Reachable()) straight from the
// live call graph, after the control locations.
func (v Vertices) buildQuery(e *Encoding) (*fsa.FSA, error) {
	if len(v) == 0 {
		return nil, errors.New("core: empty criterion")
	}
	if err := checkVertices(e.G, v...); err != nil {
		return nil, err
	}
	cg, err := e.callGraph()
	if err != nil {
		return nil, err
	}
	q := cg.contexts(e, e.PDS.NumLocs, v)
	if q == nil {
		return nil, errors.New("core: criterion vertices are unreachable from main")
	}
	return q, nil
}

// checkVertices rejects criterion vertices outside g.
func checkVertices(g *sdg.Graph, vs ...sdg.VertexID) error {
	for _, v := range vs {
		if int(v) < 0 || int(v) >= len(g.Vertices) {
			return fmt.Errorf("core: criterion vertex %d out of range", v)
		}
	}
	return nil
}

// liveCallGraph is the index behind the reachable configurations. Under
// Fig. 8's encoding every call pushes exactly one call-site symbol, so a
// configuration reachable from main's entry is a vertex v of some
// procedure P, reachable from P's entry over the stack-preserving rules
// alone (control and flow edges), followed by a chain of live call sites
// from P back to main. A site is live when its call vertex is so
// reachable in its caller and main enters the caller.
//
// The closed form equals Poststar's language as long as no param-in rule
// enters a callee whose call edge stays unreachable: every actual-in in its
// caller's closure has its call vertex there too. The SDG builder
// guarantees it (actual-ins are control dependent on their call vertex,
// and flow edges follow executable CFG paths), and the Poststar reference
// in reference_test.go pins it.
type liveCallGraph struct {
	// closure has bit v set when main enters v's procedure and v lies in
	// that procedure's entry closure; main enters exactly the procedures
	// whose entry bit is set.
	closure []uint64
	// The live sites calling procedure p are sites[siteOff[p]:siteOff[p+1]].
	siteOff []int32
	sites   []liveSite
	main    int32
}

// liveSite is a live call site and the procedure it sits in.
type liveSite struct {
	site, caller int32
}

func (cg *liveCallGraph) reaches(v sdg.VertexID) bool {
	return cg.closure[v>>6]&(1<<(v&63)) != 0
}

func (cg *liveCallGraph) callers(p int32) []liveSite {
	return cg.sites[cg.siteOff[p]:cg.siteOff[p+1]]
}

// bytes reports the heap the index holds.
func (cg *liveCallGraph) bytes() int64 {
	return int64(8*cap(cg.closure) + 4*cap(cg.siteOff) + 8*cap(cg.sites))
}

// buildLiveCallGraph searches g from main's entry over control, flow and
// call edges. Control and flow edges stay inside a procedure and a call
// edge leads to its callee's entry, so the search marks each entered
// procedure's entry closure, and the call edges it crosses are the live
// sites.
func buildLiveCallGraph(g *sdg.Graph) (*liveCallGraph, error) {
	mainIdx, ok := g.ProcByName["main"]
	if !ok {
		return nil, errors.New("core: program has no main")
	}
	cg := &liveCallGraph{
		closure: make([]uint64, (len(g.Vertices)+63)/64),
		siteOff: make([]int32, len(g.Procs)+1),
		main:    int32(mainIdx),
	}
	type call struct {
		liveSite
		callee int32
	}
	var calls []call
	entry := g.Procs[mainIdx].Entry
	cg.closure[entry>>6] |= 1 << (entry & 63)
	work := []sdg.VertexID{entry}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ed := range g.Out(v) {
			switch ed.Kind {
			case sdg.EdgeCall:
				callee := int32(g.Vertices[ed.To].Proc)
				calls = append(calls, call{liveSite{int32(g.Vertices[v].Site), int32(g.Vertices[v].Proc)}, callee})
				cg.siteOff[callee+1]++
				fallthrough
			case sdg.EdgeControl, sdg.EdgeFlow:
				if !cg.reaches(ed.To) {
					cg.closure[ed.To>>6] |= 1 << (ed.To & 63)
					work = append(work, ed.To)
				}
			}
		}
	}
	for p := range g.Procs {
		cg.siteOff[p+1] += cg.siteOff[p]
	}
	cg.sites = make([]liveSite, len(calls))
	next := slices.Clone(cg.siteOff[:len(g.Procs)])
	for _, c := range calls {
		cg.sites[next[c.callee]] = c.liveSite
		next[c.callee]++
	}
	return cg, nil
}

// contexts builds an automaton whose first nl states precede the
// procedures' (control locations, or a start state). State 0 steps on each
// vertex of vs that main's entry reaches into its procedure's state, and
// the callers' closure of those procedures follows: one state per
// procedure, one transition per live site from callee to caller, and
// main's state final. It returns nil when main reaches none of vs.
func (cg *liveCallGraph) contexts(e *Encoding, nl int, vs []sdg.VertexID) *fsa.FSA {
	g := e.G
	// state[p] is procedure p's state, numbered in first-visit order; 0
	// means not visited, as no procedure takes state 0.
	state := make([]int32, len(g.Procs))
	var order []int32
	visit := func(p int32) {
		if state[p] == 0 {
			state[p] = int32(nl + len(order))
			order = append(order, p)
		}
	}
	starts := 0
	for _, v := range vs {
		if cg.reaches(v) {
			visit(int32(g.Vertices[v].Proc))
			starts++
		}
	}
	if len(order) == 0 {
		return nil
	}
	trans := starts
	for i := 0; i < len(order); i++ {
		callers := cg.callers(order[i])
		trans += len(callers)
		for _, c := range callers {
			visit(c.caller)
		}
	}
	a := fsa.New(nl + len(order))
	a.Reserve(trans)
	a.ReserveOut(0, starts)
	for _, p := range order {
		a.ReserveOut(int(state[p]), len(cg.callers(p)))
	}
	for _, v := range vs {
		if cg.reaches(v) {
			a.Add(0, e.VertexSym(v), int(state[g.Vertices[v].Proc]))
		}
	}
	for _, p := range order {
		for _, c := range cg.callers(p) {
			a.Add(int(state[p]), e.SiteSym(sdg.SiteID(c.site)), int(state[c.caller]))
		}
	}
	a.SetFinal(int(state[cg.main]))
	return a
}

// computeReachableConfigs builds the reachable-configuration automaton
// from the live call graph: one state per procedure main enters, with
// main's final; a start transition on v into P's state for each vertex v
// in P's entry closure; and a transition on C from callee to caller for
// each live site C.
func computeReachableConfigs(e *Encoding, cg *liveCallGraph) *fsa.FSA {
	vs := make([]sdg.VertexID, 0, len(e.G.Vertices))
	for v := range e.G.Vertices {
		if cg.reaches(sdg.VertexID(v)) {
			vs = append(vs, sdg.VertexID(v))
		}
	}
	a := cg.contexts(e, 1, vs) // main's entry is in vs
	a.SetStart(0)
	return a
}

// PrintfCriterion returns the actual-in vertices of every printf call-site
// in proc (or all procs when proc is empty) — the criterion shape used
// throughout the paper's examples.
func PrintfCriterion(g *sdg.Graph, proc string) []sdg.VertexID {
	var out []sdg.VertexID
	for _, s := range g.Sites {
		if !s.Lib || s.Callee != "printf" {
			continue
		}
		if proc != "" && g.Procs[s.CallerProc].Name != proc {
			continue
		}
		out = append(out, s.ActualIns...)
		if len(s.ActualIns) == 0 {
			out = append(out, s.CallVertex)
		}
	}
	return out
}
