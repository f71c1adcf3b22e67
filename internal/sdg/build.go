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
// Bodies are built into per-procedure buffers and merged in procedure
// order, so the resulting graph — vertex and site numbering included — is
// byte-identical for every worker count; the sequential-vs-parallel
// identity test and the incremental oracle (Advance merges each rebuilt
// body as soon as it is built) hold it there.
func BuildWorkers(prog *lang.Program, workers int) (*Graph, error) {
	if err := checkDirectCalls(prog); err != nil {
		return nil, err
	}
	workers = par.Workers(workers)
	t0 := time.Now()
	// The mod/ref local phase builds every procedure's CFG; the bodies
	// below reuse them instead of building each a second time.
	mr, cfgs := dataflow.ComputeModRefCFGs(prog, workers)
	sigs, hashes := computeBuildSigsWorkers(prog, mr, workers)
	b := newBuilder(prog, mr, sigs, hashes)
	tModRef := time.Now()
	b.buildSkeletons()

	// Bodies: each procedure's control dependence and reaching
	// definitions run independently into a buffer; the deterministic
	// merge below appends them in procedure order, reproducing the exact
	// vertex, site, and edge order of a fully sequential build. The
	// fan-out is chunked by CFG size so small procedures ride along with
	// big ones instead of each paying a scheduling round-trip.
	skelBase := VertexID(len(b.g.Vertices))
	bufs := make([]bodyBuf, len(b.g.Procs))
	par.ForWeighted(workers, len(b.g.Procs),
		func(i int) int { return len(cfgs[i].Nodes) },
		func(i int) {
			bufs[i].skelBase = skelBase
			bufs[i].err = b.buildBody(b.g.Procs[i], cfgs[i], &bufs[i])
		})
	var nv, ns, ne int
	for i := range bufs {
		if err := bufs[i].err; err != nil {
			return nil, err
		}
		nv += len(bufs[i].verts)
		ns += len(bufs[i].sites)
		ne += len(bufs[i].edges)
		for j := range bufs[i].sites {
			ne += connectBound(&bufs[i].sites[j])
		}
	}
	b.g.Vertices = slices.Grow(b.g.Vertices, nv)
	b.sites = slices.Grow(b.sites, ns)
	b.edges = slices.Grow(b.edges, ne)
	for i, p := range b.g.Procs {
		b.mergeBody(p, &bufs[i])
	}
	tPDG := time.Now()
	b.connectProcs()
	b.finish()
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
	// edges is the edge stream: skeletons, then bodies in procedure
	// order, then the interprocedural wiring. finish lays it out as the
	// graph's out and in lists.
	edges []Edge
	// sites holds the call sites by value, in ID order; finish points
	// Graph.Sites into it.
	sites []Site
	// bodies[i] is procedure i's body: its vertex and site ranges.
	bodies []bodySpan
}

type bodySpan struct {
	lo, hi         VertexID
	siteLo, siteHi SiteID
}

func newBuilder(prog *lang.Program, mr *dataflow.ModRef, sigs, hashes map[string]uint64) *builder {
	n := len(prog.Funcs)
	g := &Graph{
		Prog:       prog,
		Procs:      make([]*Proc, n),
		ProcByName: make(map[string]int, n),
		buildSigs:  sigs,
		procHashes: hashes,
		modref:     mr,
	}
	procs := make([]Proc, n)
	for i, fn := range prog.Funcs {
		procs[i] = Proc{Index: i, Name: fn.Name, Fn: fn}
		g.Procs[i] = &procs[i]
		g.ProcByName[fn.Name] = i
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
// procedure order: the first vertices of every graph.
func (b *builder) buildSkeletons() {
	nv := 0
	for _, p := range b.g.Procs {
		nv += 1 + b.numFormals(p)
	}
	b.g.Vertices = slices.Grow(b.g.Vertices, nv)
	b.edges = slices.Grow(b.edges, nv-len(b.g.Procs))
	for _, p := range b.g.Procs {
		b.buildProcSkeleton(p)
	}
}

func (b *builder) numFormals(p *Proc) int {
	n := len(p.Fn.Params) + len(b.mr.FormalInGlobalNames(p.Name)) + len(b.mr.GMODNames(p.Name))
	if p.Fn.ReturnsValue {
		n++
	}
	return n
}

// buildProcSkeleton creates the entry and formal vertices of p, with the
// entry's control edges to them.
func (b *builder) buildProcSkeleton(p *Proc) {
	fn := p.Fn
	ins, outs := b.mr.FormalInGlobalNames(fn.Name), b.mr.GMODNames(fn.Name)
	p.Entry = b.addVertex(Vertex{Kind: KindEntry, Proc: p.Index, Site: -1, Param: NoParam})
	formals := make([]VertexID, 0, b.numFormals(p))
	for i, prm := range fn.Params {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: i, Var: prm.Name}))
	}
	for _, gname := range ins {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: NoParam, Var: gname}))
	}
	nIn := len(formals)
	if fn.ReturnsValue {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: RetVar, IsReturn: true}))
	}
	for _, gname := range outs {
		formals = append(formals, b.addVertex(Vertex{Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: gname}))
	}
	p.FormalIns, p.FormalOuts = formals[:nIn:nIn], formals[nIn:]
	for _, v := range formals {
		b.addEdge(p.Entry, v, EdgeControl)
	}
}

// skeletonSize returns the number of skeleton (entry + formal) vertices of
// p, numbered consecutively from p.Entry.
func skeletonSize(p *Proc) int { return 1 + len(p.FormalIns) + len(p.FormalOuts) }

// bodyBuf collects one procedure body's vertices, call sites, and edges
// locally, in creation order, for mergeBody to append to the graph.
// Vertex references at or above skelBase denote the buffer's own vertices
// (skelBase + local index); references below it are global vertices, which
// are already numbered. Site IDs and vertex Site fields are buffer-local.
type bodyBuf struct {
	skelBase VertexID
	verts    []Vertex
	sites    []Site
	edges    []Edge
	err      error
}

func (bb *bodyBuf) addVertex(v Vertex) VertexID {
	bb.verts = append(bb.verts, v)
	return bb.skelBase + VertexID(len(bb.verts)-1)
}

// addSite appends a call site whose actual lists have room for nIn and
// nOut vertices, and returns it; it stays valid until the next addSite.
func (bb *bodyBuf) addSite(s Site, nIn, nOut int) *Site {
	s.ID = SiteID(len(bb.sites))
	acts := make([]VertexID, 0, nIn+nOut)
	s.ActualIns, s.ActualOuts = acts[:0:nIn], acts[nIn:nIn]
	bb.sites = append(bb.sites, s)
	return &bb.sites[len(bb.sites)-1]
}

func (bb *bodyBuf) addEdge(from, to VertexID, kind EdgeKind) {
	bb.edges = append(bb.edges, Edge{From: from, To: to, Kind: kind})
}

// mergeBody appends a buffered body to the graph: its sites (their
// global IDs are contiguous per procedure), its vertices as one block
// (renumbered from the buffer-local range), then its edges in recorded
// order — the numbering and edge order of a fully sequential build.
func (b *builder) mergeBody(p *Proc, buf *bodyBuf) {
	siteBase := SiteID(len(b.sites))
	vertBase := VertexID(len(b.g.Vertices))
	dec := func(ref VertexID) VertexID {
		if ref >= buf.skelBase {
			return vertBase + (ref - buf.skelBase)
		}
		return ref
	}
	for i := range buf.sites {
		site := &buf.sites[i]
		site.ID += siteBase
		site.CallVertex = dec(site.CallVertex)
		for j := range site.ActualIns {
			site.ActualIns[j] = dec(site.ActualIns[j])
		}
		for j := range site.ActualOuts {
			site.ActualOuts[j] = dec(site.ActualOuts[j])
		}
	}
	b.sites = append(b.sites, buf.sites...)
	b.g.Vertices = append(b.g.Vertices, buf.verts...)
	vs := b.g.Vertices[vertBase:]
	for i := range vs {
		vs[i].ID = vertBase + VertexID(i)
		if vs[i].Site >= 0 {
			vs[i].Site += siteBase
		}
	}
	for _, e := range buf.edges {
		b.addEdge(dec(e.From), dec(e.To), e.Kind)
	}
	b.bodies[p.Index] = bodySpan{
		lo: vertBase, hi: VertexID(len(b.g.Vertices)),
		siteLo: siteBase, siteHi: SiteID(len(b.sites)),
	}
}

// finish lists each procedure's vertices and sites, points Graph.Sites at
// the site values, and installs the edge stream.
func (b *builder) finish() {
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
	g.InstallEdges(b.edges)
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

// buildProcBody builds p's CFG and body into a buffer and merges it at
// once — the Advance rebuild path, which runs procedures strictly in
// order.
func (b *builder) buildProcBody(p *Proc) error {
	buf := bodyBuf{skelBase: VertexID(len(b.g.Vertices))}
	if err := b.buildBody(p, cfg.Build(p.Fn), &buf); err != nil {
		return err
	}
	b.mergeBody(p, &buf)
	return nil
}

// buildBody builds p's body over its CFG graph — statement and call-site
// vertices, control and flow dependences — into em.
func (b *builder) buildBody(p *Proc, graph *cfg.Graph, em *bodyBuf) error {
	ev, err := b.bodyVertices(p, graph, em)
	if err != nil {
		return err
	}

	// Control dependence edges (Ball–Horwitz augmented CFG).
	for nodeID, controllers := range cfg.ControlDeps(graph) {
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
	return nil
}

// bodyVertices creates p's statement and call-site vertices, with the
// call sites' own edges, in CFG node order, and returns each node's
// dataflow events.
func (b *builder) bodyVertices(p *Proc, graph *cfg.Graph, em *bodyBuf) (*bodyEvents, error) {
	fn := p.Fn
	n := len(graph.Nodes)
	starts := make([]int32, 2*(n+1))
	ev := &bodyEvents{
		vertex:   make([]VertexID, n),
		defStart: starts[: n+1 : n+1],
		useStart: starts[n+1:],
	}
	em.verts = slices.Grow(em.verts, n)
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
	calleeFn := b.g.Procs[b.g.ProcByName[x.Callee]].Fn
	ins, outs := b.mr.FormalInGlobalNames(x.Callee), b.mr.GMODNames(x.Callee)
	ret := x.Target != "" && calleeFn.ReturnsValue
	nOut := len(outs)
	if ret {
		nOut++
	}
	site := em.addSite(Site{CallerProc: p.Index, Callee: x.Callee, Stmt: x}, len(x.Args)+len(ins), nOut)
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
	// defVar[d] is definition d's variable; defsOf[defsStart[x]:defsStart[x+1]]
	// lists variable x's definitions in ascending order.
	varOf := make(map[string]int32, nd)
	defVar := make([]int32, nd)
	for d := range ev.defs {
		x, ok := varOf[ev.defs[d].vr]
		if !ok {
			x = int32(len(varOf))
			varOf[ev.defs[d].vr] = x
		}
		defVar[d] = x
	}
	defsStart := make([]int32, len(varOf)+1)
	for _, x := range defVar {
		defsStart[x+1]++
	}
	for x := 1; x < len(defsStart); x++ {
		defsStart[x] += defsStart[x-1]
	}
	defsOf := make([]int32, nd)
	fill := append([]int32(nil), defsStart[:len(defsStart)-1]...)
	for d, x := range defVar {
		defsOf[fill[x]] = int32(d)
		fill[x]++
	}

	n := len(graph.Nodes)
	words := (nd + 63) / 64
	sets := make([]uint64, 4*n*words)
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
	queue := make([]int32, n)
	queued := make([]bool, n)
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
