// Package core implements the paper's primary contribution: the
// automaton-based specialization-slicing algorithm (Alg. 1). The SDG is
// encoded as a pushdown system (Defn. 3.2 / Fig. 8), the stack-configuration
// slice is computed with Prestar, the result is converted to the minimal
// reverse-deterministic (MRD) automaton A6, and the specialized SDG is read
// out of A6's structure, together with the vertex map M_C used for the
// soundness/completeness statement and the §8.3 reslicing self-check.
package core

import (
	"fmt"
	"sync"

	"specslice/internal/fsa"
	"specslice/internal/pds"
	"specslice/internal/sdg"
)

// Encoding is the PDS encoding of an SDG, with the symbol numbering shared
// by every automaton the algorithm manipulates: SDG vertex v has symbol v,
// call-site s has symbol NumVertices+s.
//
// An Encoding is immutable once built and safe for concurrent use: the
// Prestar rule indexes, the live call graph and the reachable-configuration
// automaton are cached on it, so one Encoding can serve many slice requests
// without repeating the setup work.
type Encoding struct {
	G   *sdg.Graph
	PDS *pds.PDS
	// LocOfFO maps each formal-out vertex to its dedicated control location
	// p_fo; control location 0 is the common location p.
	LocOfFO map[sdg.VertexID]int

	prestar *pds.PrestarEngine

	reachOnce sync.Once
	calls     *liveCallGraph
	reach     *fsa.FSA
	reachErr  error

	// nameMu guards names, the cache of numbered variant names ("p_3")
	// the readout assigns when a procedure specializes into several
	// copies. Warm requests against a shared encoding re-derive the same
	// names, so caching them spares the readout re-formatting them.
	nameMu sync.Mutex
	names  map[uint64]string
}

// variantName returns the cached numbered name of procedure proc's
// ordinal-th extra variant ("<name>_<ordinal>").
func (e *Encoding) variantName(proc, ordinal int) string {
	key := uint64(proc)<<32 | uint64(uint32(ordinal))
	e.nameMu.Lock()
	defer e.nameMu.Unlock()
	if s, ok := e.names[key]; ok {
		return s
	}
	if e.names == nil {
		e.names = map[uint64]string{}
	}
	s := fmt.Sprintf("%s_%d", e.G.Procs[proc].Name, ordinal)
	e.names[key] = s
	return s
}

// Prestar answers a pre* query through the encoding's cached rule indexes,
// returning a fresh automaton; a is left as it was.
func (e *Encoding) Prestar(a *fsa.FSA) *fsa.FSA { return e.prestar.Prestar(a) }

// ScratchBytes estimates the heap the encoding's Prestar engine retains
// between queries (pooled saturation arenas); ScratchProvision is the
// steady-state floor one arena will reach once queries start. Byte-budget
// accounting (engine.Footprint) charges whichever is larger.
func (e *Encoding) ScratchBytes() int64     { return e.prestar.ScratchBytes() }
func (e *Encoding) ScratchProvision() int64 { return e.prestar.ScratchProvision() }

// PrestarSizes reports the high-water marks of the encoding's Prestar
// runs, and SizePrestar hands such marks, from the encoding of an earlier
// version of the program, to this encoding's first run (pds.ArenaSizes).
func (e *Encoding) PrestarSizes() pds.ArenaSizes     { return e.prestar.Sizes() }
func (e *Encoding) SizePrestar(sizes pds.ArenaSizes) { e.prestar.SizeFrom(sizes) }

// Reachable returns the cached reachable-configuration automaton, a plain
// FSA accepting the stack word of every configuration of the unrolled SDG
// reachable along dependence edges from main's entry: the language of
// Poststar[P]({(p, entry_main)}) at p. It and the live call graph it is
// read from are computed together on first use, without a Poststar
// saturation (see computeReachableConfigs). Safe for concurrent callers.
func (e *Encoding) Reachable() (*fsa.FSA, error) {
	e.reachOnce.Do(func() {
		e.calls, e.reachErr = buildLiveCallGraph(e.G)
		if e.reachErr == nil {
			e.reach = computeReachableConfigs(e, e.calls)
		}
	})
	return e.reach, e.reachErr
}

// callGraph returns the live call graph, building it with Reachable.
func (e *Encoding) callGraph() (*liveCallGraph, error) {
	_, err := e.Reachable()
	return e.calls, err
}

// CallGraphBytes reports the heap held by the live call graph behind
// Reachable, building it first; zero when Reachable fails.
func (e *Encoding) CallGraphBytes() int64 {
	if cg, err := e.callGraph(); err == nil {
		return cg.bytes()
	}
	return 0
}

// VertexSym returns the stack symbol of an SDG vertex.
func (e *Encoding) VertexSym(v sdg.VertexID) fsa.Symbol { return fsa.Symbol(v) }

// SiteSym returns the stack symbol of a call-site label.
func (e *Encoding) SiteSym(s sdg.SiteID) fsa.Symbol {
	return fsa.Symbol(len(e.G.Vertices) + int(s))
}

// IsSiteSym reports whether sym encodes a call-site label.
func (e *Encoding) IsSiteSym(sym fsa.Symbol) bool {
	return int(sym) >= len(e.G.Vertices)
}

// SymVertex decodes a vertex symbol.
func (e *Encoding) SymVertex(sym fsa.Symbol) sdg.VertexID { return sdg.VertexID(sym) }

// SymSite decodes a call-site symbol.
func (e *Encoding) SymSite(sym fsa.Symbol) sdg.SiteID {
	return sdg.SiteID(int(sym) - len(e.G.Vertices))
}

// NumSymbols returns the total symbol count (vertices + call-sites).
func (e *Encoding) NumSymbols() int { return len(e.G.Vertices) + len(e.G.Sites) }

// Alphabet lists every symbol.
func (e *Encoding) Alphabet() []fsa.Symbol {
	out := make([]fsa.Symbol, e.NumSymbols())
	for i := range out {
		out[i] = fsa.Symbol(i)
	}
	return out
}

// Encode builds the PDS for g following the paper's Fig. 8 schema:
//
//	flow/control edge u→v:      <p, u> ↪ <p, v>
//	call edge c→e at site C:    <p, c> ↪ <p, e C>
//	param-in edge a→f at C:     <p, a> ↪ <p, f C>
//	param-out edge f→a at C:    <p, f> ↪ <p_f, ε> and <p_f, C> ↪ <p, a>
//
// The rules are one per edge plus one pop rule per formal-out with
// param-out edges, counted first so the rule list is one exactly sized
// array.
func Encode(g *sdg.Graph) *Encoding {
	edges := g.Edges()
	// Edges are grouped by source vertex, so each formal-out's param-out
	// edges are adjacent and a formal-out is new when its source changes.
	nPop := 0
	for i, last := 0, sdg.VertexID(-1); i < len(edges); i++ {
		if edges[i].Kind == sdg.EdgeParamOut && edges[i].From != last {
			last = edges[i].From
			nPop++
		}
	}
	e := &Encoding{G: g, LocOfFO: make(map[sdg.VertexID]int, nPop)}
	p := &pds.PDS{NumLocs: 1, Rules: make([]pds.Rule, 0, len(edges)+nPop)} // location 0 is p
	// Rules hold symbols as int32; vertex v is symbol v (VertexSym).
	last, l := sdg.VertexID(-1), 0
	for _, edge := range edges {
		from, to := int32(edge.From), int32(edge.To)
		switch edge.Kind {
		case sdg.EdgeControl, sdg.EdgeFlow:
			p.AddRule(pds.Rule{P: 0, G: from, P2: 0, W: [2]int32{to}, N: 1})
		case sdg.EdgeCall, sdg.EdgeParamIn:
			site := int32(e.SiteSym(g.Vertices[edge.From].Site))
			p.AddRule(pds.Rule{P: 0, G: from, P2: 0, W: [2]int32{to, site}, N: 2})
		case sdg.EdgeParamOut:
			// edge.From is the formal-out, edge.To the actual-out.
			if edge.From != last {
				// Pop rule <p, fo> ↪ <p_fo, ε>, added once per formal-out.
				last, l = edge.From, p.NumLocs
				p.NumLocs++
				e.LocOfFO[edge.From] = l
				p.AddRule(pds.Rule{P: 0, G: from, P2: int32(l)})
			}
			site := int32(e.SiteSym(g.Vertices[edge.To].Site))
			p.AddRule(pds.Rule{P: int32(l), G: site, P2: 0, W: [2]int32{to}, N: 1})
		default:
			panic(fmt.Sprintf("core: unknown edge kind %v", edge.Kind))
		}
	}
	e.PDS = p
	e.prestar = pds.NewPrestarEngine(p)
	return e
}

// PAutomatonToFSA converts a P-automaton into a plain FSA accepting the
// stack language of control location p (state 0): the configurations
// (p, w) the automaton accepts. It consumes a, which every caller builds
// for the conversion: an epsilon-free a (every Prestar result) is trimmed
// in place and returned, so the conversion copies nothing.
func PAutomatonToFSA(a *fsa.FSA) *fsa.FSA {
	a.SetStart(0)
	return a.RemoveEpsilonInPlace()
}

// FSAToQuery converts a plain FSA over encoding symbols into a P-automaton
// query: states 0..numLocs-1 are control locations, the FSA's start states
// are fused onto control location 0 (p), and no transitions enter control
// locations. The language must not contain the empty word (configuration
// words always begin with a vertex symbol).
func FSAToQuery(f *fsa.FSA, numLocs int) *fsa.FSA {
	f = f.RemoveEpsilon()
	q := fsa.New(numLocs + f.NumStates())
	q.Reserve(2 * f.NumTransitions())
	off := numLocs
	for _, t := range f.Transitions() {
		q.Add(t.From+off, t.Sym, t.To+off)
		if f.IsStart(t.From) {
			q.Add(0, t.Sym, t.To+off)
		}
	}
	for _, s := range f.Finals() {
		q.SetFinal(s + off)
	}
	return q
}
