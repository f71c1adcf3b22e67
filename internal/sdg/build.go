package sdg

import (
	"fmt"
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
// work — mod/ref summary components, build signatures, and the
// per-procedure dependence-graph bodies (CFG, control dependence, reaching
// definitions) — across a worker pool of the given size (<= 0 means
// GOMAXPROCS, mirroring engine.BatchOptions.Workers). Bodies are built
// into per-procedure buffers and merged in procedure order, so the
// resulting graph — vertex and site numbering included — is byte-identical
// for every worker count; the sequential-vs-parallel identity test and the
// incremental oracle (Advance merges each rebuilt body as soon as it is
// built) hold it there.
func BuildWorkers(prog *lang.Program, workers int) (*Graph, error) {
	for _, fn := range prog.Funcs {
		for _, s := range fn.Stmts() {
			if c, ok := s.(*lang.CallStmt); ok && c.Indirect {
				return nil, fmt.Errorf("sdg: %s: indirect call through %q; apply the funcptr transformation first", c.Pos, c.Callee)
			}
		}
	}
	workers = par.Workers(workers)
	t0 := time.Now()
	mr := dataflow.ComputeModRefWorkers(prog, workers)
	sigs, hashes := computeBuildSigsWorkers(prog, mr, workers)
	b := &builder{
		g: &Graph{
			Prog:       prog,
			ProcByName: map[string]int{},
			buildSigs:  sigs,
			procHashes: hashes,
			modref:     mr,
		},
		mr: mr,
	}
	tModRef := time.Now()
	for i, fn := range prog.Funcs {
		p := &Proc{Index: i, Name: fn.Name, Fn: fn}
		b.g.Procs = append(b.g.Procs, p)
		b.g.ProcByName[fn.Name] = i
	}
	for _, p := range b.g.Procs {
		b.buildProcSkeleton(p)
	}

	// Bodies: each procedure's CFG, control dependence, and reaching
	// definitions run independently into a buffer; the deterministic merge
	// below replays them in procedure order, reproducing the exact vertex,
	// site, and edge insertion order of a fully sequential build. The
	// fan-out is chunked by statement count so small procedures ride
	// along with big ones instead of each paying a scheduling round-trip.
	skelBase := VertexID(len(b.g.Vertices))
	bufs := make([]bodyBuf, len(b.g.Procs))
	par.ForWeighted(workers, len(b.g.Procs),
		func(i int) int { return len(b.g.Procs[i].Fn.Stmts()) },
		func(i int) {
			bufs[i].skelBase = skelBase
			bufs[i].err = b.buildBody(b.g.Procs[i], &bufs[i])
		})
	for i, p := range b.g.Procs {
		if err := bufs[i].err; err != nil {
			return nil, err
		}
		b.mergeBody(p, &bufs[i])
	}
	tPDG := time.Now()
	b.connectProcs()
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

type builder struct {
	g  *Graph
	mr *dataflow.ModRef
}

// bodyBuf collects one procedure body's vertices, call sites, and edges
// locally, in creation order, for mergeBody to replay into the graph.
// Vertex references at or above skelBase denote the buffer's own vertices
// (skelBase + local index); references below it are global vertices, which
// are already numbered. Site IDs and vertex Site fields are buffer-local.
type bodyBuf struct {
	skelBase VertexID
	verts    []Vertex
	sites    []*Site
	edges    []Edge
	err      error
}

func (bb *bodyBuf) addVertex(v Vertex) VertexID {
	bb.verts = append(bb.verts, v)
	return bb.skelBase + VertexID(len(bb.verts)-1)
}

func (bb *bodyBuf) addSite(s Site) *Site {
	s.ID = SiteID(len(bb.sites))
	sp := &s
	bb.sites = append(bb.sites, sp)
	return sp
}

func (bb *bodyBuf) addEdge(from, to VertexID, kind EdgeKind) {
	bb.edges = append(bb.edges, Edge{From: from, To: to, Kind: kind})
}

// mergeBody replays a buffered body into the graph: sites first (their
// global IDs are contiguous per procedure), then vertices (renumbered from
// the buffer-local range), then edges in recorded order through the
// deduplicating AddEdge — the numbering and edge order of a fully
// sequential build.
func (b *builder) mergeBody(p *Proc, buf *bodyBuf) {
	siteBase := SiteID(len(b.g.Sites))
	vertBase := VertexID(len(b.g.Vertices))
	dec := func(ref VertexID) VertexID {
		if ref >= buf.skelBase {
			return vertBase + (ref - buf.skelBase)
		}
		return ref
	}
	for _, site := range buf.sites {
		site.ID += siteBase
		b.g.Sites = append(b.g.Sites, site)
		p.Sites = append(p.Sites, site.ID)
	}
	for i := range buf.verts {
		v := &buf.verts[i]
		if v.Site >= 0 {
			v.Site += siteBase
		}
		b.g.AddVertex(v)
	}
	for _, site := range buf.sites {
		site.CallVertex = dec(site.CallVertex)
		for i := range site.ActualIns {
			site.ActualIns[i] = dec(site.ActualIns[i])
		}
		for i := range site.ActualOuts {
			site.ActualOuts[i] = dec(site.ActualOuts[i])
		}
	}
	for _, e := range buf.edges {
		b.g.AddEdge(dec(e.From), dec(e.To), e.Kind)
	}
}

// buildProcSkeleton creates the entry and formal vertices of p.
func (b *builder) buildProcSkeleton(p *Proc) {
	fn := p.Fn
	p.Entry = b.g.AddVertex(&Vertex{Kind: KindEntry, Proc: p.Index, Site: -1, Param: NoParam, Label: fn.Name})

	for i, prm := range fn.Params {
		v := b.g.AddVertex(&Vertex{
			Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: i, Var: prm.Name,
			Label: fmt.Sprintf("%s: %s", fn.Name, prm.Name),
		})
		p.FormalIns = append(p.FormalIns, v)
	}
	for _, gname := range b.mr.FormalInGlobalNames(fn.Name) {
		v := b.g.AddVertex(&Vertex{
			Kind: KindFormalIn, Proc: p.Index, Site: -1, Param: NoParam, Var: gname,
			Label: fmt.Sprintf("%s: global %s in", fn.Name, gname),
		})
		p.FormalIns = append(p.FormalIns, v)
	}

	if fn.ReturnsValue {
		v := b.g.AddVertex(&Vertex{
			Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: RetVar, IsReturn: true,
			Label: fmt.Sprintf("%s: return", fn.Name),
		})
		p.FormalOuts = append(p.FormalOuts, v)
	}
	for _, gname := range b.mr.GMODNames(fn.Name) {
		v := b.g.AddVertex(&Vertex{
			Kind: KindFormalOut, Proc: p.Index, Site: -1, Param: NoParam, Var: gname,
			Label: fmt.Sprintf("%s: global %s out", fn.Name, gname),
		})
		p.FormalOuts = append(p.FormalOuts, v)
	}

	for _, v := range p.FormalIns {
		b.g.AddEdge(p.Entry, v, EdgeControl)
	}
	for _, v := range p.FormalOuts {
		b.g.AddEdge(p.Entry, v, EdgeControl)
	}
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

// nodeInfo is the dataflow view of one CFG node.
type nodeInfo struct {
	vertex VertexID // primary vertex (call vertex for sites); -1 if none
	defs   []defEvent
	uses   []useEvent
}

// buildProcBody builds p's body into a buffer and merges it at once — the
// Advance rebuild path, which runs procedures strictly in order.
func (b *builder) buildProcBody(p *Proc) error {
	buf := bodyBuf{skelBase: VertexID(len(b.g.Vertices))}
	if err := b.buildBody(p, &buf); err != nil {
		return err
	}
	b.mergeBody(p, &buf)
	return nil
}

// buildBody builds p's body — CFG, statement and call-site vertices,
// control and flow dependences — into em.
func (b *builder) buildBody(p *Proc, em *bodyBuf) error {
	fn := p.Fn
	graph := cfg.Build(fn)
	info := make([]nodeInfo, len(graph.Nodes))
	for i := range info {
		info[i].vertex = -1
	}

	// Entry node: formal-ins define their variables.
	info[graph.Entry.ID].vertex = VertexID(p.Entry)
	for _, fiID := range p.FormalIns {
		fi := b.g.Vertices[fiID]
		info[graph.Entry.ID].defs = append(info[graph.Entry.ID].defs, defEvent{vertex: fiID, vr: fi.Var, kills: true})
	}
	// Exit node: formal-outs use their variables.
	for _, foID := range p.FormalOuts {
		fo := b.g.Vertices[foID]
		info[graph.Exit.ID].uses = append(info[graph.Exit.ID].uses, useEvent{vertex: foID, vr: fo.Var})
	}

	// Statement vertices.
	for _, node := range graph.Nodes {
		if node.Stmt == nil {
			continue
		}
		ni := &info[node.ID]
		switch x := node.Stmt.(type) {
		case *lang.DeclStmt:
			if x.Init == nil {
				continue // pure declaration: no vertex
			}
			v := em.addVertex(Vertex{Kind: KindStmt, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: x.Name + " = " + lang.ExprString(x.Init)})
			ni.vertex = v
			ni.defs = append(ni.defs, defEvent{vertex: v, vr: x.Name, kills: true})
			b.addExprUses(ni, v, x.Init)

		case *lang.AssignStmt:
			v := em.addVertex(Vertex{Kind: KindStmt, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: x.LHS + " = " + lang.ExprString(x.RHS)})
			ni.vertex = v
			ni.defs = append(ni.defs, defEvent{vertex: v, vr: x.LHS, kills: true})
			b.addExprUses(ni, v, x.RHS)

		case *lang.IfStmt:
			v := em.addVertex(Vertex{Kind: KindPredicate, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: "if " + lang.ExprString(x.Cond)})
			ni.vertex = v
			b.addExprUses(ni, v, x.Cond)

		case *lang.WhileStmt:
			v := em.addVertex(Vertex{Kind: KindPredicate, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: "while " + lang.ExprString(x.Cond)})
			ni.vertex = v
			b.addExprUses(ni, v, x.Cond)

		case *lang.ReturnStmt:
			v := em.addVertex(Vertex{Kind: KindStmt, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: "return " + lang.ExprString(x.Value)})
			ni.vertex = v
			if x.Value != nil && fn.ReturnsValue {
				ni.defs = append(ni.defs, defEvent{vertex: v, vr: RetVar, kills: true})
				b.addExprUses(ni, v, x.Value)
			}

		case *lang.BreakStmt:
			ni.vertex = em.addVertex(Vertex{Kind: KindStmt, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: "break"})
		case *lang.ContinueStmt:
			ni.vertex = em.addVertex(Vertex{Kind: KindStmt, Proc: p.Index, Stmt: x, Site: -1, Param: NoParam, Label: "continue"})

		case *lang.CallStmt:
			b.buildCallSite(p, ni, x, em)

		case *lang.PrintfStmt:
			site := em.addSite(Site{CallerProc: p.Index, Callee: "printf", Lib: true, Stmt: x})
			cv := em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Label: "call printf"})
			site.CallVertex = cv
			ni.vertex = cv
			for i, a := range x.Args {
				ai := em.addVertex(Vertex{Kind: KindActualIn, Proc: p.Index, Stmt: x, Site: site.ID, Param: i, Label: lang.ExprString(a)})
				site.ActualIns = append(site.ActualIns, ai)
				em.addEdge(cv, ai, EdgeControl)
				for _, vr := range lang.ExprVars(a) {
					ni.uses = append(ni.uses, useEvent{vertex: ai, vr: vr})
				}
				// §6.1: library signatures must not change; make the call
				// depend on each of its actuals.
				em.addEdge(ai, cv, EdgeFlow)
			}

		case *lang.ScanfStmt:
			site := em.addSite(Site{CallerProc: p.Index, Callee: "scanf", Lib: true, Stmt: x})
			cv := em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Label: "call scanf"})
			site.CallVertex = cv
			ni.vertex = cv
			ao := em.addVertex(Vertex{Kind: KindActualOut, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Var: x.Var, Label: "&" + x.Var})
			site.ActualOuts = append(site.ActualOuts, ao)
			em.addEdge(cv, ao, EdgeControl)
			em.addEdge(cv, ao, EdgeFlow) // the read value comes from the call
			ni.defs = append(ni.defs, defEvent{vertex: ao, vr: x.Var, kills: true})
			// §6.1 edge: the actual-out is the &var argument; slicing back
			// from the call keeps its argument list intact.
			em.addEdge(ao, cv, EdgeFlow)

		default:
			return fmt.Errorf("sdg: unhandled statement %T", x)
		}
	}

	// Control dependence edges (Ball–Horwitz augmented CFG).
	deps := cfg.ControlDeps(graph)
	for nodeID, controllers := range deps {
		dep := info[nodeID].vertex
		if dep < 0 {
			continue
		}
		for _, ctl := range controllers {
			src := info[ctl].vertex
			if src < 0 {
				continue
			}
			em.addEdge(src, dep, EdgeControl)
		}
	}

	// Flow dependence via reaching definitions over executable edges.
	b.flowEdges(graph, info, em)
	return nil
}

func (b *builder) addExprUses(ni *nodeInfo, v VertexID, e lang.Expr) {
	if e == nil {
		return
	}
	for _, vr := range lang.ExprVars(e) {
		ni.uses = append(ni.uses, useEvent{vertex: v, vr: vr})
	}
}

func (b *builder) buildCallSite(p *Proc, ni *nodeInfo, x *lang.CallStmt, em *bodyBuf) {
	calleeIdx := b.g.ProcByName[x.Callee]
	calleeFn := b.g.Procs[calleeIdx].Fn
	site := em.addSite(Site{CallerProc: p.Index, Callee: x.Callee, Stmt: x})

	cv := em.addVertex(Vertex{Kind: KindCall, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Label: "call " + x.Callee})
	site.CallVertex = cv
	ni.vertex = cv

	for i, a := range x.Args {
		ai := em.addVertex(Vertex{Kind: KindActualIn, Proc: p.Index, Stmt: x, Site: site.ID, Param: i, Label: lang.ExprString(a)})
		site.ActualIns = append(site.ActualIns, ai)
		em.addEdge(cv, ai, EdgeControl)
		for _, vr := range lang.ExprVars(a) {
			ni.uses = append(ni.uses, useEvent{vertex: ai, vr: vr})
		}
	}
	for _, gname := range b.mr.FormalInGlobalNames(x.Callee) {
		ai := em.addVertex(Vertex{Kind: KindActualIn, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Var: gname, Label: "global " + gname + " in"})
		site.ActualIns = append(site.ActualIns, ai)
		em.addEdge(cv, ai, EdgeControl)
		ni.uses = append(ni.uses, useEvent{vertex: ai, vr: gname})
	}

	if x.Target != "" && calleeFn.ReturnsValue {
		ao := em.addVertex(Vertex{Kind: KindActualOut, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Var: x.Target, IsReturn: true, Label: x.Target + " = ret"})
		site.ActualOuts = append(site.ActualOuts, ao)
		em.addEdge(cv, ao, EdgeControl)
		ni.defs = append(ni.defs, defEvent{vertex: ao, vr: x.Target, kills: true})
	}
	for _, gname := range b.mr.GMODNames(x.Callee) {
		ao := em.addVertex(Vertex{Kind: KindActualOut, Proc: p.Index, Stmt: x, Site: site.ID, Param: NoParam, Var: gname, Label: "global " + gname + " out"})
		site.ActualOuts = append(site.ActualOuts, ao)
		em.addEdge(cv, ao, EdgeControl)
		ni.defs = append(ni.defs, defEvent{vertex: ao, vr: gname, kills: b.mr.MustModHas(x.Callee, gname)})
	}
}

// flowEdges solves reaching definitions over the executable CFG and adds
// flow-dependence edges from reaching defs to uses.
func (b *builder) flowEdges(graph *cfg.Graph, info []nodeInfo, em *bodyBuf) {
	// Index all definitions.
	type def struct {
		vertex VertexID
		vr     string
	}
	var defs []def
	defIndex := map[def]int{}
	defsOfVar := map[string][]int{}
	for i := range info {
		for _, d := range info[i].defs {
			k := def{d.vertex, d.vr}
			if _, ok := defIndex[k]; !ok {
				defIndex[k] = len(defs)
				defsOfVar[d.vr] = append(defsOfVar[d.vr], len(defs))
				defs = append(defs, k)
			}
		}
	}
	nd := len(defs)
	words := (nd + 63) / 64
	newSet := func() []uint64 { return make([]uint64, words) }
	setBit := func(s []uint64, i int) { s[i/64] |= 1 << (uint(i) % 64) }
	clearBit := func(s []uint64, i int) { s[i/64] &^= 1 << (uint(i) % 64) }
	getBit := func(s []uint64, i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

	n := len(graph.Nodes)
	inSets := make([][]uint64, n)
	outSets := make([][]uint64, n)
	for i := 0; i < n; i++ {
		inSets[i] = newSet()
		outSets[i] = newSet()
	}

	apply := func(nodeID int, in []uint64) []uint64 {
		out := append([]uint64(nil), in...)
		for _, d := range info[nodeID].defs {
			if d.kills {
				for _, di := range defsOfVar[d.vr] {
					clearBit(out, di)
				}
			}
		}
		for _, d := range info[nodeID].defs {
			setBit(out, defIndex[def{d.vertex, d.vr}])
		}
		return out
	}

	work := make([]int, 0, n)
	inWork := make([]bool, n)
	for i := 0; i < n; i++ {
		work = append(work, i)
		inWork[i] = true
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		in := newSet()
		for _, e := range graph.Preds[id] {
			if e.Pseudo {
				continue
			}
			for w := 0; w < words; w++ {
				in[w] |= outSets[e.To][w]
			}
		}
		inSets[id] = in
		out := apply(id, in)
		changed := false
		for w := 0; w < words; w++ {
			if out[w] != outSets[id][w] {
				changed = true
				break
			}
		}
		if changed {
			outSets[id] = out
			for _, e := range graph.Succs[id] {
				if e.Pseudo {
					continue
				}
				if !inWork[e.To] {
					inWork[e.To] = true
					work = append(work, e.To)
				}
			}
		}
	}

	for id := 0; id < n; id++ {
		for _, u := range info[id].uses {
			for _, di := range defsOfVar[u.vr] {
				if getBit(inSets[id], di) {
					em.addEdge(defs[di].vertex, u.vertex, EdgeFlow)
				}
			}
		}
	}
}

// connectProcs adds call, parameter-in, and parameter-out edges, matching
// actuals to formals by binary search over the formal ordering invariant.
// They are the last edges Build and Advance add — the graph is never
// written afterwards — so it then releases AddEdge's dedup index.
func (b *builder) connectProcs() {
	for _, site := range b.g.Sites {
		if site.Lib {
			continue
		}
		callee := b.g.Procs[b.g.ProcByName[site.Callee]]
		b.g.AddEdge(site.CallVertex, callee.Entry, EdgeCall)
		// Parameter-in: positional by Param index, globals by Var.
		for _, aiID := range site.ActualIns {
			if fiID, ok := callee.MatchFormalIn(b.g, b.g.Vertices[aiID]); ok {
				b.g.AddEdge(aiID, fiID, EdgeParamIn)
			}
		}
		for _, aoID := range site.ActualOuts {
			if foID, ok := callee.MatchFormalOut(b.g, b.g.Vertices[aoID]); ok {
				b.g.AddEdge(foID, aoID, EdgeParamOut)
			}
		}
	}
	b.g.edgeSet = nil
}
