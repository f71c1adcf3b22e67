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
	"slices"
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
type VertexKind uint8

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
)

var edgeNames = [...]string{"control", "flow", "call", "param-in", "param-out"}

func (k EdgeKind) String() string { return edgeNames[k] }

// NoParam marks formal/actual vertices that stand for a global or the
// return value rather than a positional parameter.
const NoParam = -1

// Vertex is one SDG vertex. Graph.Vertices holds vertices by value;
// Graph.Label renders a vertex's label on demand.
type Vertex struct {
	ID   VertexID
	Proc int       // index into Graph.Procs
	Stmt lang.Stmt // originating statement; nil for entry/formal vertices
	Site SiteID    // for call/actual vertices; -1 otherwise
	// Param is the 0-based parameter position for positional formal/actual
	// vertices, or NoParam.
	Param int
	// Var is the variable a formal/actual global vertex stands for, or the
	// return-value pseudo-variable.
	Var  string
	Kind VertexKind
	// IsReturn marks the return-value formal-out/actual-out.
	IsReturn bool
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
		fi := &g.Vertices[p.FormalIns[mid]]
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
		fi := &g.Vertices[p.FormalIns[mid]]
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
		fo := &g.Vertices[p.FormalOuts[mid]]
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
		ai := &g.Vertices[s.ActualIns[mid]]
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
		ao := &g.Vertices[s.ActualOuts[mid]]
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
	Vertices []Vertex
	Procs    []*Proc
	Sites    []*Site

	ProcByName map[string]int

	// out is the adjacency in compressed sparse row form: every edge,
	// grouped by source vertex, v's out list being
	// out[outStart[v]:outStart[v+1]]. InstallEdges fills it from one edge
	// stream. in holds every edge again, grouped by target, laid out from
	// out on the first call to In: only summary edges and Weiser slices
	// walk edges backward, and most graphs serve neither.
	out      []Edge
	outStart []int32
	inOnce   sync.Once
	in       []Edge
	inStart  []int32
	// procHashes[i] is procedure i's content hash (lang.ProcHash) and
	// ifaces[i] the hash of its mod/ref interface (ifaceHash); intraEdges[i]
	// counts its intraprocedural edges, skeleton included. Advance reads
	// them to decide which procedures it copies, and to size the copy,
	// without printing or walking this graph's program: O(procedures)
	// words.
	procHashes, ifaces []uint64
	intraEdges         []int32
	// modref caches the program's interprocedural mod/ref analysis, so
	// Advance can reuse the summaries of procedures whose call subtree an
	// edit did not touch instead of re-running the fixpoints program-wide.
	modref *dataflow.ModRef
	// buildStats records the phase timings of the Build that produced the
	// graph (zero when not built by Build).
	buildStats BuildStats
	// stmts is the statement index, built once on first use (StmtIndex).
	stmtsOnce sync.Once
	stmts     *StmtIndex
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// AddVertex appends a vertex, numbering it and listing it in its
// procedure, and returns its ID.
func (g *Graph) AddVertex(v Vertex) VertexID {
	v.ID = VertexID(len(g.Vertices))
	g.Vertices = append(g.Vertices, v)
	if v.Proc >= 0 && v.Proc < len(g.Procs) {
		g.Procs[v.Proc].Vertices = append(g.Procs[v.Proc].Vertices, v.ID)
	}
	return v.ID
}

// InstallEdges sets the graph's adjacency to the given edge stream, which
// must be duplicate-free and reference only existing vertices; the stream
// may come as several segments, read in order. Each out list keeps the
// stream's order.
func (g *Graph) InstallEdges(segs ...[]Edge) { g.installEdges(nil, nil, segs...) }

// blockCopy records one procedure whose vertices Advance copied from an
// older graph as two blocks: its skeleton, [entry, entry+skel) here and
// [oldEntry, oldEntry+skel) there, and its body, [body, body+n) here and
// [oldBody, oldBody+n) there. edges is the number of its intraprocedural
// edges.
type blockCopy struct {
	oldEntry, entry VertexID
	oldBody, body   VertexID
	skel, n         int
	edges           int
}

// remap returns the vertex here that was old vertex v of the procedure.
func (c *blockCopy) remap(v VertexID) VertexID {
	if d := v - c.oldEntry; d >= 0 && d < VertexID(c.skel) {
		return c.entry + d
	}
	return c.body + (v - c.oldBody)
}

// installEdges lays out the graph's out lists from two sources. First,
// every vertex of a copied procedure (copies, in procedure order) gets the
// intraprocedural part of its old out list in old, remapped: a list is its
// control and flow edges followed by its interprocedural ones, since every
// builder emits interprocedural edges last, so that part is a prefix,
// copied in one pass with an ID offset and in its old order, the order
// Build emits the procedure's edges in. Then the stream segs, read in
// order, is appended to its edges' lists by a stable counting sort. It is
// the only way a graph gets edges; the stream must be duplicate-free and
// reference only existing vertices.
func (g *Graph) installEdges(old *Graph, copies []blockCopy, segs ...[]Edge) {
	n, m := len(g.Vertices), 0
	for _, seg := range segs {
		m += len(seg)
	}
	for i := range copies {
		m += copies[i].edges
	}
	g.outStart = make([]int32, n+1)
	g.out = make([]Edge, m)
	// Count the stream's edges per vertex, one slot up.
	for _, edges := range segs {
		for i := range edges {
			g.outStart[edges[i].From+1]++
		}
	}
	// In vertex order, place the copied edges and leave start[v+1] at the
	// first slot of v's stream edges, the cursor the stream advances to
	// the end of v's list, which is where v+1's begins. Skeletons precede
	// bodies, each in procedure order, so the copied blocks are met in
	// vertex order.
	outStart, out := g.outStart, g.out
	var oc int32
	v := VertexID(0)
	for phase := 0; phase < 2; phase++ {
		for i := range copies {
			c := &copies[i]
			lo, oldLo, size := c.entry, c.oldEntry, c.skel
			if phase == 1 {
				lo, oldLo, size = c.body, c.oldBody, c.n
			}
			for ; v < lo; v++ {
				k := outStart[v+1]
				outStart[v+1], oc = oc, oc+k
			}
			oe, skel := c.oldEntry, VertexID(c.skel)
			de, db := c.entry-c.oldEntry, c.body-c.oldBody
			for ov := oldLo; ov < oldLo+VertexID(size); ov, v = ov+1, v+1 {
				for _, e := range old.out[old.outStart[ov]:old.outStart[ov+1]] {
					if e.Kind > EdgeFlow {
						break
					}
					if e.To-oe >= 0 && e.To-oe < skel {
						e.To += de
					} else {
						e.To += db
					}
					e.From = v
					out[oc] = e
					oc++
				}
				k := outStart[v+1]
				outStart[v+1], oc = oc, oc+k
			}
		}
	}
	for ; v < VertexID(n); v++ {
		k := outStart[v+1]
		outStart[v+1], oc = oc, oc+k
	}
	for _, edges := range segs {
		for _, e := range edges {
			g.out[g.outStart[e.From+1]] = e
			g.outStart[e.From+1]++
		}
	}
	if g.outStart[n] != int32(m) {
		panic(fmt.Sprintf("sdg: internal error: laid out %d out edges of %d", g.outStart[n], m))
	}
}

// layoutIn lays out the in lists from the out lists by a stable counting
// sort on target: v's in list is ordered by source vertex, and edges from
// one source keep their out-list order.
func (g *Graph) layoutIn() {
	n := len(g.Vertices)
	g.inStart = make([]int32, n+1)
	g.in = make([]Edge, len(g.out))
	for i := range g.out {
		g.inStart[g.out[i].To+1]++
	}
	for v := 0; v < n; v++ {
		g.inStart[v+1] += g.inStart[v]
	}
	next := slices.Clone(g.inStart[:n])
	for _, e := range g.out {
		g.in[next[e.To]] = e
		next[e.To]++
	}
}

// Out returns the outgoing edges of v. The list is a view into the
// graph's adjacency; callers must not modify it.
func (g *Graph) Out(v VertexID) []Edge {
	lo, hi := g.outStart[v], g.outStart[v+1]
	return g.out[lo:hi:hi]
}

// In returns the incoming edges of v, as a view like Out's, ordered by
// source vertex. The first call lays out every vertex's in list.
func (g *Graph) In(v VertexID) []Edge {
	g.inOnce.Do(g.layoutIn)
	lo, hi := g.inStart[v], g.inStart[v+1]
	return g.in[lo:hi:hi]
}

// Edges returns all edges, ordered by source vertex, as a view into the
// graph's adjacency; callers must not modify it.
func (g *Graph) Edges() []Edge { return g.out[:len(g.out):len(g.out)] }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.out) }

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

// Label renders vertex v the way the paper's figures label it: the
// procedure name for an entry, the formal's name or global for formals,
// the printed statement for statement and predicate vertices, and the
// argument or defined variable for actuals. Labels are computed on
// demand; only DOT output, feature criteria and diagnostics read them.
func (g *Graph) Label(v VertexID) string {
	vx := &g.Vertices[v]
	switch vx.Kind {
	case KindEntry, KindFormalIn, KindFormalOut:
		name := g.procName(vx.Proc)
		switch {
		case vx.Kind == KindEntry:
			return name
		case vx.Kind == KindFormalIn && vx.Param != NoParam:
			return name + ": " + vx.Var
		case vx.Kind == KindFormalIn:
			return name + ": global " + vx.Var + " in"
		case vx.IsReturn:
			return name + ": return"
		default:
			return name + ": global " + vx.Var + " out"
		}
	case KindCall:
		switch x := vx.Stmt.(type) {
		case *lang.CallStmt:
			return "call " + x.Callee
		case *lang.PrintfStmt:
			return "call printf"
		case *lang.ScanfStmt:
			return "call scanf"
		}
	case KindActualIn:
		if vx.Param == NoParam {
			return "global " + vx.Var + " in"
		}
		if args := callArgs(vx.Stmt); vx.Param < len(args) {
			return lang.ExprString(args[vx.Param])
		}
	case KindActualOut:
		switch {
		case isScanf(vx.Stmt):
			return "&" + vx.Var
		case vx.IsReturn:
			return vx.Var + " = ret"
		default:
			return "global " + vx.Var + " out"
		}
	case KindStmt, KindPredicate:
		switch x := vx.Stmt.(type) {
		case *lang.DeclStmt:
			return x.Name + " = " + lang.ExprString(x.Init)
		case *lang.AssignStmt:
			return x.LHS + " = " + lang.ExprString(x.RHS)
		case *lang.IfStmt:
			return "if " + lang.ExprString(x.Cond)
		case *lang.WhileStmt:
			return "while " + lang.ExprString(x.Cond)
		case *lang.ReturnStmt:
			return "return " + lang.ExprString(x.Value)
		case *lang.BreakStmt:
			return "break"
		case *lang.ContinueStmt:
			return "continue"
		}
	}
	return vx.Kind.String()
}

// procName names the function of procedure i: in a specialized graph
// that is the source procedure a variant copies, as in its labels.
func (g *Graph) procName(i int) string {
	if i < 0 || i >= len(g.Procs) {
		return "?"
	}
	if p := g.Procs[i]; p.Fn != nil {
		return p.Fn.Name
	}
	return g.Procs[i].Name
}

// callArgs returns the argument list of a call or printf statement.
func callArgs(s lang.Stmt) []lang.Expr {
	switch x := s.(type) {
	case *lang.CallStmt:
		return x.Args
	case *lang.PrintfStmt:
		return x.Args
	}
	return nil
}

func isScanf(s lang.Stmt) bool {
	_, ok := s.(*lang.ScanfStmt)
	return ok
}

// VertexString renders v for diagnostics.
func (g *Graph) VertexString(v VertexID) string {
	vx := &g.Vertices[v]
	proc := "?"
	if vx.Proc >= 0 {
		proc = g.Procs[vx.Proc].Name
	}
	return fmt.Sprintf("v%d[%s %s %s]", v, proc, vx.Kind, g.Label(v))
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
