package sdg

import (
	"fmt"
	"slices"
	"time"

	"specslice/internal/cfg"
	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/par"
)

// RetVar is the pseudo-variable carrying a procedure's return value between
// return statements and the return-value formal-out vertex.
const RetVar = "$ret"

// Build constructs the SDG of prog with a GOMAXPROCS-sized worker pool.
// The program must contain only direct calls; run funcptr.Transform first
// to eliminate indirect calls.
func Build(prog *lang.Program) (*Graph, error) { return BuildWorkers(prog, 0) }

// BuildWorkers constructs the SDG of prog, sharding the procedure-local
// work — mod/ref summary components with each procedure's CFG, build
// signatures, and the per-procedure dependence-graph bodies (control
// dependence, reaching definitions) — across a worker pool of the given
// size (<= 0 means GOMAXPROCS, mirroring engine.BatchOptions.Workers).
// Each body's vertex, site and actual counts are fixed by its CFG and the
// mod/ref interfaces of its callees, so bodies are laid out in procedure
// order before any is built and each writes its vertices and sites
// straight into its own slots. The resulting graph — vertex and site
// numbering included — is byte-identical for every worker count; the
// sequential-vs-parallel identity test and the incremental oracle hold it
// there.
func BuildWorkers(prog *lang.Program, workers int) (*Graph, error) {
	if err := checkDirectCalls(prog); err != nil {
		return nil, err
	}
	workers = par.Workers(workers)
	t0 := time.Now()
	// The mod/ref local phase builds every procedure's CFG; the bodies
	// below reuse them instead of building each a second time.
	mr, cfgs := dataflow.ComputeModRefCFGs(prog, workers)
	b := newBuilder(prog, mr, nil)
	b.g.procHashes = lang.ProcHashes(prog)
	b.g.ifaces = make([]uint64, len(prog.Funcs))
	par.For(workers, len(prog.Funcs), func(i int) { b.g.ifaces[i] = ifaceHash(prog.Funcs[i], mr) })
	tModRef := time.Now()

	// Layout: all skeletons in procedure order, then all bodies in
	// procedure order, each body's sites in statement order.
	nv, ns, na := 0, 0, 0
	for _, p := range b.g.Procs {
		nv += 1 + b.numFormals(p)
	}
	bufs := make([]bodyBuf, len(b.g.Procs))
	for i := range bufs {
		bb := &bufs[i]
		bb.shape = b.shapeOf(cfgs[i])
		bb.skelBase, bb.siteBase = VertexID(nv), SiteID(ns)
		nv, ns, na = nv+bb.shape.verts, ns+bb.shape.sites, na+bb.shape.acts
	}
	b.g.Vertices = make([]Vertex, 0, nv)
	b.buildSkeletons()
	for _, p := range b.g.Procs {
		b.edges = skeletonEdges(p, b.edges)
	}
	verts, acts := b.g.Vertices[:nv], make([]VertexID, na)
	b.sites = make([]Site, ns)
	for i := range bufs {
		bb := &bufs[i]
		bb.verts = verts[bb.skelBase : bb.skelBase : int(bb.skelBase)+bb.shape.verts]
		bb.sites = b.sites[bb.siteBase : bb.siteBase : int(bb.siteBase)+bb.shape.sites]
		bb.acts, acts = acts[:0:bb.shape.acts], acts[bb.shape.acts:]
	}

	// Bodies: each procedure's control dependence and reaching
	// definitions run independently. A worker takes a contiguous run of
	// procedures, chunked by CFG size so small procedures ride along with
	// big ones, and reuses one scratch across them; each body's edges are
	// kept as their own segment, in the order a sequential build emits
	// them.
	par.ForChunks(workers, len(b.g.Procs),
		func(i int) int { return len(cfgs[i].Nodes) },
		func(lo, hi int) {
			sc := &bodyScratch{}
			for i := lo; i < hi; i++ {
				bb := &bufs[i]
				bb.sc, bb.edges = sc, sc.edges[:0]
				bb.err = b.buildBody(b.g.Procs[i], cfgs[i], bb)
				sc.edges = bb.edges[:0]
				bb.edges, bb.sc = slices.Clone(bb.edges), nil
			}
		})
	segs := make([][]Edge, 0, len(bufs)+2)
	segs = append(segs, b.edges) // the skeletons'
	for i := range bufs {
		if err := bufs[i].err; err != nil {
			return nil, err
		}
		segs = append(segs, bufs[i].edges)
		b.bodies[i] = bufs[i].span()
		b.g.intraEdges[i] = int32(skeletonSize(b.g.Procs[i]) - 1 + len(bufs[i].edges))
	}
	b.g.Vertices = verts
	tPDG := time.Now()
	nc := 0
	for i := range b.sites {
		nc += connectBound(&b.sites[i])
	}
	b.edges = make([]Edge, 0, nc)
	b.connectProcs()
	b.finish(nil, append(segs, b.edges)...)
	tConnect := time.Now()
	mrStats := mr.Stats()
	b.g.buildStats = BuildStats{
		Workers:        workers,
		ModRef:         tModRef.Sub(t0),
		PDG:            tPDG.Sub(tModRef),
		Connect:        tConnect.Sub(tPDG),
		Total:          tConnect.Sub(t0),
		ModRefIntern:   mrStats.Intern,
		ModRefLocal:    mrStats.Local,
		ModRefFixpoint: mrStats.Fixpoint,
	}
	return b.g, nil
}

// checkDirectCalls rejects a program that still holds an indirect call.
func checkDirectCalls(prog *lang.Program) error {
	if !prog.HasIndirectCall() {
		return nil
	}
	for _, fn := range prog.Funcs {
		for _, s := range fn.Stmts() {
			if c, ok := s.(*lang.CallStmt); ok && c.Indirect {
				return fmt.Errorf("sdg: %s: indirect call through %q; apply the funcptr transformation first", c.Pos, c.Callee)
			}
		}
	}
	return nil
}

// MustBuild builds the SDG and panics on error; for tests and workloads
// known to be valid.
func MustBuild(prog *lang.Program) *Graph {
	g, err := Build(prog)
	if err != nil {
		panic(err)
	}
	return g
}

// MustBuildWorkers is BuildWorkers, panicking on error.
func MustBuildWorkers(prog *lang.Program, workers int) *Graph {
	g, err := BuildWorkers(prog, workers)
	if err != nil {
		panic(err)
	}
	return g
}

// builder assembles one graph for Build or Advance. Vertices go straight
// into Graph.Vertices; call sites and edges collect in emission order and
// finish installs them.
type builder struct {
	g  *Graph
	mr *dataflow.ModRef
	// edges is the builder's own edge stream. Build emits the skeletons'
	// edges into it, keeps each body's edges as a segment of their own,
	// and emits the interprocedural wiring into it again, passing finish
	// the three in that order. Advance emits each rebuilt procedure's
	// skeleton and body edges into it, in procedure order, then the
	// wiring; the copied procedures' edges come from the old graph.
	edges []Edge
	// sites holds the call sites by value, in ID order; finish points
	// Graph.Sites into it.
	sites []Site
	// acts backs the actual lists of the sites Advance copies.
	acts []VertexID
	// bodies[i] is procedure i's body: its vertex and site ranges.
	bodies []bodySpan
	// copies lists the procedures Advance copied, in procedure order.
	copies []blockCopy
}

type bodySpan struct {
	lo, hi         VertexID
	siteLo, siteHi SiteID
}

// newBuilder starts the graph of prog. byName, when not nil, is an older
// graph's ProcByName over the same procedure list, which the new graph
// shares: no builder writes a map it did not make.
func newBuilder(prog *lang.Program, mr *dataflow.ModRef, byName map[string]int) *builder {
	n := len(prog.Funcs)
	g := &Graph{
		Prog:       prog,
		Procs:      make([]*Proc, n),
		ProcByName: byName,
		modref:     mr,
		intraEdges: make([]int32, n),
	}
	if byName == nil {
		g.ProcByName = make(map[string]int, n)
	}
	procs := make([]Proc, n)
	for i, fn := range prog.Funcs {
		procs[i] = Proc{Index: i, Name: fn.Name, Fn: fn}
		g.Procs[i] = &procs[i]
		if byName == nil {
			g.ProcByName[fn.Name] = i
		}
	}
	return &builder{g: g, mr: mr, bodies: make([]bodySpan, n)}
}

func (b *builder) addVertex(v Vertex) VertexID {
	v.ID = VertexID(len(b.g.Vertices))
	b.g.Vertices = append(b.g.Vertices, v)
	return v.ID
}

func (b *builder) addEdge(from, to VertexID, kind EdgeKind) {
	b.edges = append(b.edges, Edge{From: from, To: to, Kind: kind})
}

// buildSkeletons creates every procedure's entry and formal vertices, in
// procedure order: the first vertices of every graph. The formal lists
// share one backing.
func (b *builder) buildSkeletons() {
	nv, nf := 0, 0
	for _, p := range b.g.Procs {
		f := b.numFormals(p)
		nv, nf = nv+1+f, nf+f
	}
	b.g.Vertices = slices.Grow(b.g.Vertices, nv)
	formals := make([]VertexID, 0, nf)
	for _, p := range b.g.Procs {
		formals = b.buildProcSkeleton(p, formals)
	}
}

func (b *builder) numFormals(p *Proc) int {
	n := len(p.Fn.Params) + len(b.mr.FormalInGlobalNames(p.Name)) + len(b.mr.GMODNames(p.Name))
	if p.Fn.ReturnsValue {
		n++
	}
	return n
}

// buildProcSkeleton creates the entry and formal vertices of p, appending
// the formals to formals, which it returns.
func (b *builder) buildProcSkeleton(p *Proc, formals []VertexID) []VertexID {
	fn := p.Fn
	ins, outs := b.mr.FormalInGlobalNames(fn.Name), b.mr.GMODNames(fn.Name)
	p.Entry = b.addVertex(Vertex{Kind: KindEntry, Proc: p.Index, Site: -1, Param: NoParam})
	lo := len(formals)
	for i, prm := range fn.Params {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: i, Var: prm.Name}))
	}
	for _, gname := range ins {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: NoParam, Var: gname}))
	}
	mid := len(formals)
	if fn.ReturnsValue {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: RetVar, IsReturn: true}))
	}
	for _, gname := range outs {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: gname}))
	}
	hi := len(formals)
	p.FormalIns, p.FormalOuts = formals[lo:mid:mid], formals[mid:hi:hi]
	return formals
}

// skeletonEdges appends p's skeleton edges, from its entry to each formal,
// to edges.
func skeletonEdges(p *Proc, edges []Edge) []Edge {
	for _, v := range p.FormalIns {
		edges = append(edges, Edge{From: p.Entry, To: v, Kind: EdgeControl})
	}
	for _, v := range p.FormalOuts {
		edges = append(edges, Edge{From: p.Entry, To: v, Kind: EdgeControl})
	}
	return edges
}

// skeletonSize returns the number of skeleton (entry + formal) vertices of
// p, numbered consecutively from p.Entry.
func skeletonSize(p *Proc) int { return 1 + len(p.FormalIns) + len(p.FormalOuts) }

// bodyBuf receives one procedure body as it is built. Its vertices are
// numbered from skelBase and appended to verts, its call sites numbered
// from siteBase and appended to sites, and the sites' actual lists are
// carved from acts. Build and Advance point verts, sites and acts at the
// body's own slots of the graph, with exactly the capacity of its shape,
// so the appends write the final graph in place; with no slots they
// allocate.
type bodyBuf struct {
	shape    bodyShape
	skelBase VertexID
	verts    []Vertex
	siteBase SiteID
	sites    []Site
	acts     []VertexID
	edges    []Edge
	err      error
	// sc is the scratch the body's construction draws on.
	sc *bodyScratch
}

func (bb *bodyBuf) addVertex(v Vertex) VertexID {
	v.ID = bb.skelBase + VertexID(len(bb.verts))
	bb.verts = append(bb.verts, v)
	return v.ID
}

// addSite appends a call site whose actual lists have room for nIn and
// nOut vertices, and returns it; it stays valid until the next addSite.
func (bb *bodyBuf) addSite(s Site, nIn, nOut int) *Site {
	s.ID = bb.siteBase + SiteID(len(bb.sites))
	a := len(bb.acts)
	bb.acts = slices.Grow(bb.acts, nIn+nOut)[:a+nIn+nOut]
	s.ActualIns = bb.acts[a : a : a+nIn]
	s.ActualOuts = bb.acts[a+nIn : a+nIn : a+nIn+nOut]
	bb.sites = append(bb.sites, s)
	return &bb.sites[len(bb.sites)-1]
}

func (bb *bodyBuf) addEdge(from, to VertexID, kind EdgeKind) {
	bb.edges = append(bb.edges, Edge{From: from, To: to, Kind: kind})
}

// check reports a body whose counts differ from the shape it was laid out
// with: it would have written past its slots or left some unfilled.
func (bb *bodyBuf) check() error {
	if sh := bb.shape; len(bb.verts) != sh.verts || len(bb.sites) != sh.sites || len(bb.acts) != sh.acts {
		return fmt.Errorf("sdg: internal error: body built %d vertices, %d sites, %d actuals; laid out %d, %d, %d",
			len(bb.verts), len(bb.sites), len(bb.acts), sh.verts, sh.sites, sh.acts)
	}
	return nil
}

// span returns the vertex and site ranges the body fills.
func (bb *bodyBuf) span() bodySpan {
	return bodySpan{
		lo: bb.skelBase, hi: bb.skelBase + VertexID(len(bb.verts)),
		siteLo: bb.siteBase, siteHi: bb.siteBase + SiteID(len(bb.sites)),
	}
}

// bodyShape is the vertex, call-site and actual-vertex counts of one
// procedure body.
type bodyShape struct{ verts, sites, acts int }

// shapeOf counts the body bodyVertices builds over graph: one vertex per
// statement node that gets one, and per call site its call vertex plus
// its actuals, which the call's arguments and the callee's mod/ref
// interface fix.
func (b *builder) shapeOf(graph *cfg.Graph) bodyShape {
	var sh bodyShape
	for _, node := range graph.Nodes {
		if node.Kind == cfg.KindEntry || node.Kind == cfg.KindExit {
			continue
		}
		switch x := node.Stmt.(type) {
		case *lang.DeclStmt:
			if x.Init != nil {
				sh.verts++
			}
		case *lang.CallStmt:
			nIn, nOut := b.callActuals(x)
			sh.verts += 1 + nIn + nOut
			sh.sites++
			sh.acts += nIn + nOut
		case *lang.PrintfStmt:
			sh.verts += 1 + len(x.Args)
			sh.sites++
			sh.acts += len(x.Args)
		case *lang.ScanfStmt:
			sh.verts += 2
			sh.sites++
			sh.acts++
		default:
			sh.verts++
		}
	}
	return sh
}

// callActuals returns the actual-in and actual-out counts of call site x:
// one actual-in per argument and per formal-in global of the callee, one
// actual-out per global the callee may modify, plus the return value's
// when the call assigns it.
func (b *builder) callActuals(x *lang.CallStmt) (nIn, nOut int) {
	nIn = len(x.Args) + len(b.mr.FormalInGlobalNames(x.Callee))
	nOut = len(b.mr.GMODNames(x.Callee))
	if x.Target != "" && b.g.Procs[b.g.ProcByName[x.Callee]].Fn.ReturnsValue {
		nOut++
	}
	return nIn, nOut
}

// bodyScratch is the working storage of one body's construction, reused
// across the procedures one worker builds: its edge stream before the
// edges are kept, its dataflow events, the reaching-definitions solver's
// tables and the control-dependence arrays.
type bodyScratch struct {
	edges []Edge
	ev    bodyEvents
	flow  flowScratch
	deps  cfg.Scratch
}

// finish lists each procedure's vertices and sites, points Graph.Sites at
// the site values, and installs the edges: those of the procedures copied
// from old, and the stream, given as its segments in order.
func (b *builder) finish(old *Graph, segs ...[]Edge) {
	g := b.g
	g.Sites = make([]*Site, len(b.sites))
	sids := make([]SiteID, len(b.sites))
	for i := range b.sites {
		g.Sites[i] = &b.sites[i]
		sids[i] = SiteID(i)
	}
	ids := make([]VertexID, 0, len(g.Vertices))
	for i, p := range g.Procs {
		start := len(ids)
		for v := p.Entry; v < p.Entry+VertexID(skeletonSize(p)); v++ {
			ids = append(ids, v)
		}
		body := b.bodies[i]
		for v := body.lo; v < body.hi; v++ {
			ids = append(ids, v)
		}
		p.Vertices = ids[start:len(ids):len(ids)]
		p.Sites = sids[body.siteLo:body.siteHi:body.siteHi]
	}
	g.installEdges(old, b.copies, segs...)
}

// defEvent / useEvent attribute a variable definition or use to a vertex.
type defEvent struct {
	vertex VertexID
	vr     string
	kills  bool // definite assignment: kills prior defs of vr
}

type useEvent struct {
	vertex VertexID
	vr     string
}

// bodyEvents is the dataflow view of one body's CFG: each node's primary
// vertex (the call vertex for sites; -1 if none) and the definitions and
// uses attributed to it, flat in node order: node i's are
// defs[defStart[i]:defStart[i+1]] and uses[useStart[i]:useStart[i+1]].
type bodyEvents struct {
	vertex             []VertexID
	defs               []defEvent
	uses               []useEvent
	defStart, useStart []int32
	starts             []int32 // the backing of defStart and useStart
}

func (ev *bodyEvents) def(v VertexID, vr string, kills bool) {
	ev.defs = append(ev.defs, defEvent{vertex: v, vr: vr, kills: kills})
}

// exprUses records a use by v of every variable e references, once per
// name, in first-occurrence order (lang.ExprVars's order).
func (ev *bodyEvents) exprUses(v VertexID, e lang.Expr) {
	ev.uses = appendUses(ev.uses, len(ev.uses), v, e)
}

func appendUses(uses []useEvent, from int, v VertexID, e lang.Expr) []useEvent {
	switch x := e.(type) {
	case *lang.VarRef:
		for _, u := range uses[from:] {
			if u.vr == x.Name {
				return uses
			}
		}
		return append(uses, useEvent{vertex: v, vr: x.Name})
	case *lang.Unary:
		return appendUses(uses, from, v, x.X)
	case *lang.Binary:
		return appendUses(appendUses(uses, from, v, x.X), from, v, x.Y)
	case *lang.CallExpr:
		for _, a := range x.Args {
			uses = appendUses(uses, from, v, a)
		}
	}
	return uses
}

// buildProcBody builds p's body over its CFG graph at the end of the graph
// — the Advance rebuild path, which runs procedures strictly in order: its
// vertices and sites are appended to the graph's and its edges to the
// builder's stream.
func (b *builder) buildProcBody(p *Proc, graph *cfg.Graph, sc *bodyScratch) error {
	sh := b.shapeOf(graph)
	nv, ns, na := len(b.g.Vertices), len(b.sites), len(b.acts)
	b.g.Vertices = slices.Grow(b.g.Vertices, sh.verts)
	b.sites = slices.Grow(b.sites, sh.sites)
	b.acts = slices.Grow(b.acts, sh.acts)
	bb := bodyBuf{
		shape:    sh,
		skelBase: VertexID(nv), verts: b.g.Vertices[nv : nv : nv+sh.verts],
		siteBase: SiteID(ns), sites: b.sites[ns : ns : ns+sh.sites],
		acts:  b.acts[na : na : na+sh.acts],
		edges: b.edges,
		sc:    sc,
	}
	if err := b.buildBody(p, graph, &bb); err != nil {
		return err
	}
	b.g.Vertices = b.g.Vertices[:nv+sh.verts]
	b.sites = b.sites[:ns+sh.sites]
	b.acts = b.acts[:na+sh.acts]
	b.edges = bb.edges
	b.bodies[p.Index] = bb.span()
	return nil
}

// buildBody builds p's body over its CFG graph — statement and call-site
// vertices, control and flow dependences — into em, laid out for its
// shape.
func (b *builder) buildBody(p *Proc, graph *cfg.Graph, em *bodyBuf) error {
	ev, err := b.bodyVertices(p, graph, em)
	if err != nil {
		return err
	}

	// Control dependence edges (Ball–Horwitz augmented CFG).
	for nodeID, controllers := range em.sc.deps.ControlDeps(graph) {
		dep := ev.vertex[nodeID]
		if dep < 0 {
			continue
		}
		for _, ctl := range controllers {
			if src := ev.vertex[ctl]; src >= 0 {
				em.addEdge(src, dep, EdgeControl)
			}
		}
	}

	// Flow dependence via reaching definitions over executable edges.
	flowEdges(graph, ev, em)
	return em.check()
}

// bodyVertices creates p's statement and call-site vertices, with the
// call sites' own edges, in CFG node order, and returns each node's
// dataflow events.
func (b *builder) bodyVertices(p *Proc, graph *cfg.Graph, em *bodyBuf) (*bodyEvents, error) {
	fn := p.Fn
	n := len(graph.Nodes)
	ev := &em.sc.ev
	ev.vertex = slices.Grow(ev.vertex[:0], n)[:n]
	ev.starts = slices.Grow(ev.starts[:0], 2*(n+1))[:2*(n+1)]
	ev.defStart, ev.useStart = ev.starts[:n+1:n+1], ev.starts[n+1:]
	ev.defs, ev.uses = ev.defs[:0], ev.uses[:0]
	for _, node := range graph.Nodes {
		ev.defStart[node.ID] = int32(len(ev.defs))
		ev.useStart[node.ID] = int32(len(ev.uses))
		ev.vertex[node.ID] = -1
		switch node.Kind {
		case cfg.KindEntry:
			// Formal-ins define their variables.
			ev.vertex[node.ID] = p.Entry
			for _, fi := range p.FormalIns {
				ev.def(fi, b.g.Vertices[fi].Var, true)
			}
			continue
		case cfg.KindExit:
			// Formal-outs use their variables.
			for _, fo := range p.FormalOuts {
				ev.uses = append(ev.uses, useEvent{vertex: fo, vr: b.g.Vertices[fo].Var})
			}
			continue
		}
		vertex := func(kind VertexKind) VertexID {
			v := em.addVertex(Vertex{Kind: kind, Proc: p.Index, Stmt: node.Stmt, Site: -1, Param: NoParam})
			ev.vertex[node.ID] = v
			return v
		}
		switch x := node.Stmt.(type) {
		case *lang.DeclStmt:
			if x.Init == nil {
				continue // pure declaration: no vertex
			}
			v := vertex(KindStmt)
			ev.def(v, x.Name, true)
			ev.exprUses(v, x.Init)

		case *lang.AssignStmt:
			v := vertex(KindStmt)
			ev.def(v, x.LHS, true)
			ev.exprUses(v, x.RHS)

		case *lang.IfStmt:
			ev.exprUses(vertex(KindPredicate), x.Cond)

		case *lang.WhileStmt:
			ev.exprUses(vertex(KindPredicate), x.Cond)

		case *lang.ReturnStmt:
			v := vertex(KindStmt)
			if x.Value != nil && fn.ReturnsValue {
				ev.def(v, RetVar, true)
				ev.exprUses(v, x.Value)
			}

		case *lang.BreakStmt, *lang.ContinueStmt:
			vertex(KindStmt)

		case *lang.CallStmt:
			b.buildCallSite(p, x, em, ev)
			ev.vertex[node.ID] = em.sites[len(em.sites)-1].CallVertex

		case *lang.PrintfStmt:
			site := em.addSite(Site{CallerProc: p.Index, Callee: "printf", Lib: true, Stmt: x}, len(x.Args), 0)
			cv := em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam})
			site.CallVertex = cv
			ev.vertex[node.ID] = cv
			for i, a := range x.Args {
				ai := em.addVertex(Vertex{Kind: KindActualIn, Proc: p.Index, Stmt: x, Site: site.ID, Param: i})
				site.ActualIns = append(site.ActualIns, ai)
				em.addEdge(cv, ai, EdgeControl)
				ev.exprUses(ai, a)
				// §6.1: library signatures must not change; make the call
				// depend on each of its actuals.
				em.addEdge(ai, cv, EdgeFlow)
			}

		case *lang.ScanfStmt:
			site := em.addSite(Site{CallerProc: p.Index, Callee: "scanf", Lib: true, Stmt: x}, 0, 1)
			cv := em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam})
			site.CallVertex = cv
			ev.vertex[node.ID] = cv
			ao := em.addVertex(Vertex{Kind: KindActualOut, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Var: x.Var})
			site.ActualOuts = append(site.ActualOuts, ao)
			em.addEdge(cv, ao, EdgeControl)
			em.addEdge(cv, ao, EdgeFlow) // the read value comes from the call
			ev.def(ao, x.Var, true)
			// §6.1 edge: the actual-out is the &var argument; slicing back
			// from the call keeps its argument list intact.
			em.addEdge(ao, cv, EdgeFlow)

		default:
			return nil, fmt.Errorf("sdg: unhandled statement %T", x)
		}
	}
	ev.defStart[n] = int32(len(ev.defs))
	ev.useStart[n] = int32(len(ev.uses))
	return ev, nil
}

func (b *builder) buildCallSite(p *Proc, x *lang.CallStmt, em *bodyBuf, ev *bodyEvents) {
	ins, outs := b.mr.FormalInGlobalNames(x.Callee), b.mr.GMODNames(x.Callee)
	nIn, nOut := b.callActuals(x)
	ret := nOut > len(outs) // the call assigns the callee's return value
	site := em.addSite(Site{CallerProc: p.Index, Callee: x.Callee, Stmt: x}, nIn, nOut)
	actual := func(kind VertexKind, param int, vr string, isRet bool) VertexID {
		v := em.addVertex(Vertex{Kind: kind, Proc: p.Index, Stmt: x, Site: site.ID, Param: param, Var: vr, IsReturn: isRet})
		if kind == KindActualIn {
			site.ActualIns = append(site.ActualIns, v)
		} else {
			site.ActualOuts = append(site.ActualOuts, v)
		}
		em.addEdge(site.CallVertex, v, EdgeControl)
		return v
	}

	site.CallVertex = em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam})
	for i, a := range x.Args {
		ev.exprUses(actual(KindActualIn, i, "", false), a)
	}
	for _, gname := range ins {
		ev.uses = append(ev.uses, useEvent{vertex: actual(KindActualIn, NoParam, gname, false), vr: gname})
	}
	if ret {
		ev.def(actual(KindActualOut, NoParam, x.Target, true), x.Target, true)
	}
	for _, gname := range outs {
		ev.def(actual(KindActualOut, NoParam, gname, false), gname, b.mr.MustModHas(x.Callee, gname))
	}
}

// flowScratch holds flowEdges' tables between the bodies one worker
// builds.
type flowScratch struct {
	varOf                            map[string]int32
	defVar, defsStart, defsOf, queue []int32
	sets                             []uint64
	queued                           []bool
}

// flowEdges solves reaching definitions over the executable CFG and adds
// flow-dependence edges from reaching defs to uses. Definitions are
// numbered in node order and the body's defined variables interned once,
// so every node's gen, kill, in and out sets are rows of one bitset
// backing and a visit transfers in place. The internal/sdg reference test
// holds it to the map-based solver it replaced, edge for edge.
func flowEdges(graph *cfg.Graph, ev *bodyEvents, em *bodyBuf) {
	nd := len(ev.defs)
	if nd == 0 {
		return
	}
	fs := &em.sc.flow
	// defVar[d] is definition d's variable; defsOf[defsStart[x]:defsStart[x+1]]
	// lists variable x's definitions in ascending order.
	if fs.varOf == nil {
		fs.varOf = make(map[string]int32, nd)
	}
	varOf := fs.varOf
	clear(varOf)
	defVar := slices.Grow(fs.defVar[:0], nd)[:nd]
	for d := range ev.defs {
		x, ok := varOf[ev.defs[d].vr]
		if !ok {
			x = int32(len(varOf))
			varOf[ev.defs[d].vr] = x
		}
		defVar[d] = x
	}
	nx := len(varOf)
	defsStart := slices.Grow(fs.defsStart[:0], nx+1)[:nx+1]
	clear(defsStart)
	for _, x := range defVar {
		defsStart[x+1]++
	}
	for x := 1; x < len(defsStart); x++ {
		defsStart[x] += defsStart[x-1]
	}
	// Place each definition at its variable's cursor, then shift the
	// cursors back by one slot to restore the starts.
	defsOf := slices.Grow(fs.defsOf[:0], nd)[:nd]
	for d, x := range defVar {
		defsOf[defsStart[x]] = int32(d)
		defsStart[x]++
	}
	copy(defsStart[1:], defsStart[:nx])
	defsStart[0] = 0

	n := len(graph.Nodes)
	words := (nd + 63) / 64
	sets := slices.Grow(fs.sets[:0], 4*n*words)[:4*n*words]
	clear(sets)
	row := func(set, node int) []uint64 {
		off := (set*n + node) * words
		return sets[off : off+words : off+words]
	}
	const gen, kill, in, out = 0, 1, 2, 3
	for i := 0; i < n; i++ {
		g, k := row(gen, i), row(kill, i)
		for d := ev.defStart[i]; d < ev.defStart[i+1]; d++ {
			g[d/64] |= 1 << (d % 64)
			if ev.defs[d].kills {
				x := defVar[d]
				for _, d2 := range defsOf[defsStart[x]:defsStart[x+1]] {
					k[d2/64] |= 1 << (d2 % 64)
				}
			}
		}
	}

	// A FIFO worklist over a ring of n slots, seeded with every node; a
	// node is queued at most once at a time.
	queue := slices.Grow(fs.queue[:0], n)[:n]
	queued := slices.Grow(fs.queued[:0], n)[:n]
	fs.defVar, fs.defsStart, fs.defsOf, fs.sets, fs.queue, fs.queued = defVar, defsStart, defsOf, sets, queue, queued
	for i := range queue {
		queue[i] = int32(i)
		queued[i] = true
	}
	head, count := 0, n
	for count > 0 {
		id := queue[head]
		head = (head + 1) % n
		count--
		queued[id] = false
		inRow := row(in, int(id))
		clear(inRow)
		for _, e := range graph.Preds[id] {
			if e.Pseudo {
				continue
			}
			for w, o := range row(out, e.To) {
				inRow[w] |= o
			}
		}
		g, k, outRow := row(gen, int(id)), row(kill, int(id)), row(out, int(id))
		changed := false
		for w := range outRow {
			if o := inRow[w]&^k[w] | g[w]; o != outRow[w] {
				outRow[w] = o
				changed = true
			}
		}
		if !changed {
			continue
		}
		for _, e := range graph.Succs[id] {
			if !e.Pseudo && !queued[e.To] {
				queued[e.To] = true
				queue[(head+count)%n] = int32(e.To)
				count++
			}
		}
	}

	for id := 0; id < n; id++ {
		inRow := row(in, id)
		for _, u := range ev.uses[ev.useStart[id]:ev.useStart[id+1]] {
			x, ok := varOf[u.vr]
			if !ok {
				continue
			}
			for _, d := range defsOf[defsStart[x]:defsStart[x+1]] {
				if inRow[d/64]&(1<<(d%64)) != 0 {
					em.addEdge(ev.defs[d].vertex, u.vertex, EdgeFlow)
				}
			}
		}
	}
}

// connectBound is the most interprocedural edges connectProcs adds for
// site: its call edge and one parameter edge per actual.
func connectBound(s *Site) int {
	if s.Lib {
		return 0
	}
	return 1 + len(s.ActualIns) + len(s.ActualOuts)
}

// connectProcs adds call, parameter-in, and parameter-out edges, matching
// actuals to formals by binary search over the formal ordering invariant.
// They are the last edges Build and Advance emit.
func (b *builder) connectProcs() {
	g := b.g
	for i := range b.sites {
		site := &b.sites[i]
		if site.Lib {
			continue
		}
		callee := g.Procs[g.ProcByName[site.Callee]]
		b.addEdge(site.CallVertex, callee.Entry, EdgeCall)
		// Parameter-in: positional by Param index, globals by Var.
		for _, aiID := range site.ActualIns {
			if fiID, ok := callee.MatchFormalIn(g, &g.Vertices[aiID]); ok {
				b.addEdge(aiID, fiID, EdgeParamIn)
			}
		}
		for _, aoID := range site.ActualOuts {
			if foID, ok := callee.MatchFormalOut(g, &g.Vertices[aoID]); ok {
				b.addEdge(foID, aoID, EdgeParamOut)
			}
		}
	}
}
