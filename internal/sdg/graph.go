// Package sdg builds system dependence graphs (Horwitz–Reps–Binkley 1990)
// for MicroC programs: one procedure dependence graph (PDG) per function —
// entry, formal-in/out, call, actual-in/out, statement, and predicate
// vertices with control and flow dependence edges — connected by call,
// parameter-in, and parameter-out edges. Library calls (printf/scanf) get
// the extra actual→call dependence edges of the paper's §6.1 so their
// signatures survive slicing.
package sdg

import (
	"fmt"
	"sync"
	"time"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
)

// VertexID identifies an SDG vertex.
type VertexID int

// SiteID identifies a call-site.
type SiteID int

// VertexKind classifies SDG vertices.
type VertexKind int

const (
	KindEntry VertexKind = iota
	KindFormalIn
	KindFormalOut
	KindCall
	KindActualIn
	KindActualOut
	KindStmt      // assignment, decl-with-init, return, break, continue
	KindPredicate // if / while condition
)

var kindNames = [...]string{"entry", "formal-in", "formal-out", "call", "actual-in", "actual-out", "stmt", "pred"}

func (k VertexKind) String() string { return kindNames[k] }

// EdgeKind classifies SDG edges.
type EdgeKind int

const (
	EdgeControl EdgeKind = iota
	EdgeFlow
	EdgeCall
	EdgeParamIn
	EdgeParamOut
	EdgeSummary // actual-in → actual-out; computed by the slice package
)

var edgeNames = [...]string{"control", "flow", "call", "param-in", "param-out", "summary"}

func (k EdgeKind) String() string { return edgeNames[k] }

// NoParam marks formal/actual vertices that stand for a global or the
// return value rather than a positional parameter.
const NoParam = -1

// Vertex is one SDG vertex.
type Vertex struct {
	ID   VertexID
	Kind VertexKind
	Proc int       // index into Graph.Procs
	Stmt lang.Stmt // originating statement; nil for entry/formal vertices
	Site SiteID    // for call/actual vertices; -1 otherwise
	// Param is the 0-based parameter position for positional formal/actual
	// vertices, or NoParam.
	Param int
	// Var is the variable a formal/actual global vertex stands for, or the
	// return-value pseudo-variable.
	Var string
	// IsReturn marks the return-value formal-out/actual-out.
	IsReturn bool
	Label    string
}

// Edge is a directed SDG edge.
type Edge struct {
	From, To VertexID
	Kind     EdgeKind
}

// Proc is the PDG of one procedure. Its formal lookups (FormalInFor,
// MatchFormalIn, MatchFormalOut) binary-search the formal ordering
// invariant the FormalIns and FormalOuts comments state, which Build
// establishes and every specialized variant preserves.
type Proc struct {
	Index      int
	Name       string
	Fn         *lang.FuncDecl
	Entry      VertexID
	FormalIns  []VertexID // positional params in order, then globals sorted by name
	FormalOuts []VertexID // return value first (if any), then globals sorted by name
	Vertices   []VertexID
	Sites      []SiteID
}

// FormalInFor returns the formal-in vertex for positional parameter i.
func (p *Proc) FormalInFor(g *Graph, i int) (VertexID, bool) {
	// Binary search over the positional prefix (ascending Param).
	lo, hi := 0, len(p.FormalIns)
	for lo < hi {
		mid := (lo + hi) / 2
		fi := g.Vertices[p.FormalIns[mid]]
		if fi.Param == NoParam || fi.Param > i {
			hi = mid
		} else if fi.Param < i {
			lo = mid + 1
		} else {
			return p.FormalIns[mid], true
		}
	}
	return 0, false
}

// formalInGlobal returns the formal-in vertex for global name.
func (p *Proc) formalInGlobal(g *Graph, name string) (VertexID, bool) {
	// Binary search over the globals suffix (Param == NoParam, sorted by
	// Var); positional formals order before every global.
	lo, hi := 0, len(p.FormalIns)
	for lo < hi {
		mid := (lo + hi) / 2
		fi := g.Vertices[p.FormalIns[mid]]
		if fi.Param != NoParam || fi.Var < name {
			lo = mid + 1
		} else if fi.Var > name {
			hi = mid
		} else {
			return p.FormalIns[mid], true
		}
	}
	return 0, false
}

// MatchFormalIn returns p's formal-in vertex matching actual-in a:
// positional actuals match on Param, global actuals on Var. It replaces
// the former linear scan over FormalIns (quadratic on wide parameter
// lists); the scan survives as the differential reference in
// internal/core/reference_test.go.
func (p *Proc) MatchFormalIn(g *Graph, a *Vertex) (VertexID, bool) {
	if a.Param != NoParam {
		return p.FormalInFor(g, a.Param)
	}
	return p.formalInGlobal(g, a.Var)
}

// MatchFormalOut returns p's formal-out vertex matching actual-out a: the
// return formal-out for return actuals, otherwise the matching global.
func (p *Proc) MatchFormalOut(g *Graph, a *Vertex) (VertexID, bool) {
	if a.IsReturn {
		if len(p.FormalOuts) > 0 && g.Vertices[p.FormalOuts[0]].IsReturn {
			return p.FormalOuts[0], true
		}
		return 0, false
	}
	// Binary search over the globals suffix (return value, if any, first).
	lo, hi := 0, len(p.FormalOuts)
	for lo < hi {
		mid := (lo + hi) / 2
		fo := g.Vertices[p.FormalOuts[mid]]
		if fo.IsReturn || fo.Var < a.Var {
			lo = mid + 1
		} else if fo.Var > a.Var {
			hi = mid
		} else {
			return p.FormalOuts[mid], true
		}
	}
	return 0, false
}

// Site is one call-site (user call, printf, or scanf).
type Site struct {
	ID         SiteID
	CallerProc int
	Callee     string // callee function name; "printf"/"scanf" for library calls
	Lib        bool
	CallVertex VertexID
	ActualIns  []VertexID // positional args in order, then globals sorted by name
	ActualOuts []VertexID // return value first (if present), then globals sorted by name
	Stmt       lang.Stmt
}

// ActualInFor returns the site's actual-in matching formal-in f, by binary
// search over the actual ordering invariant (positional args ascending,
// then globals sorted by Var — the mirror of the formal lists).
func (s *Site) ActualInFor(g *Graph, f *Vertex) (VertexID, bool) {
	lo, hi := 0, len(s.ActualIns)
	for lo < hi {
		mid := (lo + hi) / 2
		ai := g.Vertices[s.ActualIns[mid]]
		var less bool
		switch {
		case f.Param != NoParam:
			less = ai.Param != NoParam && ai.Param < f.Param
		default:
			less = ai.Param != NoParam || ai.Var < f.Var
		}
		if less {
			lo = mid + 1
			continue
		}
		if (f.Param != NoParam && ai.Param == f.Param) ||
			(f.Param == NoParam && ai.Param == NoParam && ai.Var == f.Var) {
			return s.ActualIns[mid], true
		}
		hi = mid
	}
	return 0, false
}

// ActualOutFor returns the site's actual-out matching formal-out f (the
// return actual for the return formal-out, otherwise the matching global).
func (s *Site) ActualOutFor(g *Graph, f *Vertex) (VertexID, bool) {
	if f.IsReturn {
		if len(s.ActualOuts) > 0 && g.Vertices[s.ActualOuts[0]].IsReturn {
			return s.ActualOuts[0], true
		}
		return 0, false
	}
	lo, hi := 0, len(s.ActualOuts)
	for lo < hi {
		mid := (lo + hi) / 2
		ao := g.Vertices[s.ActualOuts[mid]]
		if ao.IsReturn || ao.Var < f.Var {
			lo = mid + 1
		} else if ao.Var > f.Var {
			hi = mid
		} else {
			return s.ActualOuts[mid], true
		}
	}
	return 0, false
}

// Graph is a system dependence graph.
type Graph struct {
	Prog     *lang.Program
	Vertices []*Vertex
	Procs    []*Proc
	Sites    []*Site

	ProcByName map[string]int

	out [][]Edge
	in  [][]Edge
	// edgeSet is the O(1) dedup/membership index over all edges, keyed on
	// the packed (from, kind, to) int. It is nil until the first AddEdge
	// call.
	edgeSet map[uint64]struct{}
	// buildSigs maps each procedure name to its build signature: a hash of
	// every input its PDG construction depends on (normalized source plus
	// its own and its callees' mod/ref interfaces). Advance reuses a
	// procedure's PDG exactly when its signature is unchanged.
	buildSigs map[string]uint64
	// procHashes retains each procedure's raw content hash
	// (lang.ProcHash), so advancing from this graph diffs the versions
	// without printing the old program again.
	procHashes map[string]uint64
	// modref caches the program's interprocedural mod/ref analysis, so
	// Advance can reuse the summaries of procedures whose call subtree an
	// edit did not touch instead of re-running the fixpoints program-wide.
	modref *dataflow.ModRef
	// summariesDone records that the summary-edge fixpoint has been reached,
	// so recomputation can be skipped (see slice.ComputeSummaryEdges).
	summariesDone bool
	// buildStats records the phase timings of the Build that produced the
	// graph (zero when not built by Build).
	buildStats BuildStats
	// stmts is the statement index, built once on first use (StmtIndex).
	stmtsOnce sync.Once
	stmts     *StmtIndex
}

// SummariesComputed reports whether MarkSummariesComputed has been called.
func (g *Graph) SummariesComputed() bool { return g.summariesDone }

// MarkSummariesComputed records that the graph's summary edges are complete.
// Adding non-summary edges afterwards invalidates the mark; callers that
// mutate the graph further should not rely on it.
func (g *Graph) MarkSummariesComputed() { g.summariesDone = true }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// AddVertex appends a vertex and returns its ID.
func (g *Graph) AddVertex(v *Vertex) VertexID {
	v.ID = VertexID(len(g.Vertices))
	g.Vertices = append(g.Vertices, v)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if v.Proc >= 0 && v.Proc < len(g.Procs) {
		g.Procs[v.Proc].Vertices = append(g.Procs[v.Proc].Vertices, v.ID)
	}
	return v.ID
}

// edgeKey packs (from, kind, to) into one word: 4 bits of kind below 30
// bits of to below 30 bits of from. Vertex counts are bounded far below
// 2^30 by memory long before the key can overflow.
func edgeKey(from, to VertexID, kind EdgeKind) uint64 {
	return uint64(from)<<34 | uint64(to)<<4 | uint64(kind)
}

// ensureEdgeIndex builds the packed dedup index from the adjacency lists.
// Graphs assembled by InstallEdges skip the index (their edge list is
// dedup-free by construction), so the first mutation or membership query
// afterwards pays one linear pass here.
func (g *Graph) ensureEdgeIndex() {
	if g.edgeSet != nil {
		return
	}
	g.edgeSet = make(map[uint64]struct{}, 2*g.NumEdges())
	for _, es := range g.out {
		for _, e := range es {
			g.edgeSet[edgeKey(e.From, e.To, e.Kind)] = struct{}{}
		}
	}
}

// AddEdge inserts the edge if not already present, reporting whether it
// was new. Dedup is O(1) through the packed edge index.
func (g *Graph) AddEdge(from, to VertexID, kind EdgeKind) bool {
	g.ensureEdgeIndex()
	k := edgeKey(from, to, kind)
	if _, ok := g.edgeSet[k]; ok {
		return false
	}
	g.edgeSet[k] = struct{}{}
	e := Edge{From: from, To: to, Kind: kind}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	return true
}

// HasEdge reports whether the exact edge exists, in O(1) after the index
// is (lazily) built.
func (g *Graph) HasEdge(from, to VertexID, kind EdgeKind) bool {
	g.ensureEdgeIndex()
	_, ok := g.edgeSet[edgeKey(from, to, kind)]
	return ok
}

// InstallEdges replaces the graph's adjacency with the given edge list,
// which must already be duplicate-free, packing the per-vertex out/in
// lists into two backings: one [][]Edge of length 2·vertices holding both
// directions' headers and one []Edge of length 2·edges holding both
// copies. The dedup index is not built; a later AddEdge or HasEdge
// reconstructs it lazily.
func (g *Graph) InstallEdges(edges []Edge) {
	n := len(g.Vertices)
	m := len(edges)
	adj := make([][]Edge, 2*n)
	backing := make([]Edge, 2*m)
	g.out, g.in = adj[:n:n], adj[n:]
	// Counting pass, then prefix offsets into the shared backing: out
	// lists occupy [0, m), in lists [m, 2m).
	counts := make([]int32, 2*n)
	for i := range edges {
		counts[edges[i].From]++
		counts[int(edges[i].To)+n]++
	}
	off := 0
	for v := 0; v < n; v++ {
		c := int(counts[v])
		g.out[v] = backing[off : off : off+c]
		off += c
	}
	off = m
	for v := 0; v < n; v++ {
		c := int(counts[n+v])
		g.in[v] = backing[off : off : off+c]
		off += c
	}
	for _, e := range edges {
		g.out[e.From] = append(g.out[e.From], e)
		g.in[e.To] = append(g.in[e.To], e)
	}
	g.edgeSet = nil
}

// Out returns the outgoing edges of v.
func (g *Graph) Out(v VertexID) []Edge { return g.out[v] }

// In returns the incoming edges of v.
func (g *Graph) In(v VertexID) []Edge { return g.in[v] }

// Edges returns all edges, ordered by source vertex.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, es := range g.out {
		out = append(out, es...)
	}
	return out
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// SiteCalls returns the call-sites calling procedure name.
func (g *Graph) SiteCalls(name string) []*Site {
	var out []*Site
	for _, s := range g.Sites {
		if s.Callee == name && !s.Lib {
			out = append(out, s)
		}
	}
	return out
}

// VertexString renders v for diagnostics.
func (g *Graph) VertexString(v VertexID) string {
	vx := g.Vertices[v]
	proc := "?"
	if vx.Proc >= 0 {
		proc = g.Procs[vx.Proc].Name
	}
	return fmt.Sprintf("v%d[%s %s %s]", v, proc, vx.Kind, vx.Label)
}

// BuildStats records where a Build spent its time and how wide its worker
// pool ran — the cold-path counterpart of core.Timings. It is also the
// public specslice.BuildStats and the "build" object of the HTTP
// service's /v1/stats, so the JSON tags and the field order are the wire
// schema: durations marshal as integer nanoseconds. Advanced engines
// report zeros — their graphs were never built from scratch.
type BuildStats struct {
	// Workers is the pool size the procedure-parallel phases actually used.
	Workers int `json:"workers"`
	// ModRef covers the interprocedural mod/ref analysis (plus build
	// signatures), PDG the per-procedure skeleton+body construction and
	// merge, Connect the interprocedural wiring.
	ModRef time.Duration `json:"modref_ns"`
	// ModRefIntern/Local/Fixpoint split the dense mod/ref solve: variable
	// interning and call-graph setup, per-procedure CFG + effect-bit
	// extraction, and the word-wise summary propagation. Their sum is
	// less than ModRef, which also covers build-signature hashing.
	ModRefIntern   time.Duration `json:"modref_intern_ns"`
	ModRefLocal    time.Duration `json:"modref_local_ns"`
	ModRefFixpoint time.Duration `json:"modref_fixpoint_ns"`
	PDG            time.Duration `json:"pdg_ns"`
	Connect        time.Duration `json:"connect_ns"`
	Total          time.Duration `json:"total_ns"`
}

// Add accumulates o into s (aggregation across builds); the worker width
// is taken from the most recent build.
func (s *BuildStats) Add(o BuildStats) {
	if o.Workers != 0 {
		s.Workers = o.Workers
	}
	s.ModRef += o.ModRef
	s.ModRefIntern += o.ModRefIntern
	s.ModRefLocal += o.ModRefLocal
	s.ModRefFixpoint += o.ModRefFixpoint
	s.PDG += o.PDG
	s.Connect += o.Connect
	s.Total += o.Total
}

// BuildStats reports the graph's build-phase timings (zero for graphs not
// produced by Build, e.g. Advance deltas or readout results).
func (g *Graph) BuildStats() BuildStats { return g.buildStats }

// Stats summarizes a graph for reporting.
type Stats struct {
	Procs     int
	Vertices  int
	Edges     int
	CallSites int
}

// Statistics returns summary counts.
func (g *Graph) Statistics() Stats {
	return Stats{Procs: len(g.Procs), Vertices: len(g.Vertices), Edges: g.NumEdges(), CallSites: len(g.Sites)}
}
