package sdg

import (
	"reflect"
	"slices"

	"specslice/internal/cfg"
	"specslice/internal/dataflow"
	"specslice/internal/lang"
)

// This file implements procedure-granular incremental SDG construction:
// Advance builds the graph of an edited program by copying the procedure
// dependence graphs of untouched procedures from the previous version and
// rebuilding only the procedures an edit actually affects.
//
// A procedure's PDG is a function of three inputs:
//
//   - its own normalized source (lang.ProcHash), which covers the
//     signature, body statements, CFG shape, and intraprocedural dataflow;
//   - its own mod/ref interface (ifaceHash: formal-in globals, GMOD and
//     MustMod), which shapes its formal vertices;
//   - the mod/ref interface, return-ness, and arity of every procedure it
//     calls, which shape its call-site actual vertices and kill sets.
//
// Each graph retains every procedure's source hash and interface hash. If
// a procedure's source hash, its interface hash and its callees'
// interface hashes are all unchanged between versions, a full rebuild of
// that procedure would produce a structurally identical PDG, so Advance
// copies it. Crucially, the copy creates vertices and call sites in
// exactly the order Build would (all skeletons in procedure order, then
// all bodies in procedure order, sites in statement order), and every
// out and in list in Build's order, so the advanced graph's numbering —
// and therefore every downstream artifact, PDS encoding, automaton, and
// emitted slice — is identical to a from-scratch build of the new
// program. The incremental equivalence oracle (TESTING.md, Layer 4)
// holds Advance to exactly that standard.
//
// An unchanged procedure costs Advance a block copy of its vertices, sites
// and intraprocedural edges with an ID offset, and no walk beyond pairing
// its old and new statements; everything else — the mod/ref re-solve, the
// rebuilt bodies, the interface hashes — scales with the procedures the
// edit touches. The interprocedural wiring is re-derived for every call
// site.

// DeltaStats reports what Advance reused and what it had to rebuild.
type DeltaStats struct {
	// ProcsReused / ProcsRebuilt partition the new program's procedures.
	ProcsReused  int
	ProcsRebuilt int
	// ProcsRemoved counts old procedures with no same-name successor.
	ProcsRemoved int
	// ModRefFallback names why mod/ref was recomputed for the whole
	// program (dataflow.FallbackGlobals or FallbackNoState), and is empty
	// when it advanced incrementally. A program with an indirect call is
	// rejected before mod/ref runs.
	// ModRefResolved counts the procedures whose summaries were re-solved,
	// and ModRefRounds the caller rounds that widened that set.
	ModRefFallback string
	ModRefResolved int
	ModRefRounds   int
}

// Advance constructs the SDG of newProg, reusing the PDGs of every
// procedure whose inputs are unchanged from old (see the file comment).
// The result is indistinguishable from Build(newProg) — same vertices,
// same numbering, same edges in the same list order — but unchanged
// procedures skip CFG construction, control dependence, the
// reaching-definitions dataflow and the mod/ref solve. old is only read;
// it may be in use by concurrent readers.
func Advance(old *Graph, newProg *lang.Program) (*Graph, *DeltaStats, error) {
	if err := checkDirectCalls(newProg); err != nil {
		return nil, nil, err
	}
	n := len(newProg.Funcs)
	// A graph not made by Build or Advance retains nothing to reuse.
	retained := old.modref != nil && len(old.procHashes) == len(old.Procs) && old.Prog != nil
	hashes := lang.ProcHashes(newProg)
	sameProcs := retained && len(old.Procs) == n
	for i := 0; sameProcs && i < n; i++ {
		sameProcs = old.Procs[i].Name == newProg.Funcs[i].Name
	}
	var byName map[string]int
	if sameProcs {
		byName = old.ProcByName
	}
	b := newBuilder(newProg, nil, byName)
	g := b.g
	g.procHashes = hashes
	st := &DeltaStats{ProcsRemoved: len(old.Procs)}

	// Relate the versions procedure by procedure. A textually unchanged
	// procedure's callees are its old call sites'; only the others are
	// walked.
	ed := &dataflow.Edit{
		OldIndex:  make([]int32, n),
		Changed:   make([]bool, n),
		CallStart: make([]int32, n+1),
	}
	ed.Callees = make([]int32, 0, len(old.Sites))
	for i, fn := range newProg.Funcs {
		oi, ok := i, sameProcs
		if !sameProcs {
			oi, ok = old.ProcByName[fn.Name]
		}
		if ok {
			st.ProcsRemoved--
		}
		// Without retained state nothing is reused: every procedure
		// counts as changed.
		ok = ok && retained
		ed.OldIndex[i] = -1
		if ok {
			ed.OldIndex[i] = int32(oi)
		}
		ed.Changed[i] = !ok || old.procHashes[oi] != hashes[i]
		if ed.Changed[i] {
			lang.WalkStmts(fn.Body, func(s lang.Stmt) {
				if c, ok := s.(*lang.CallStmt); ok {
					ed.Callees = append(ed.Callees, int32(g.ProcByName[c.Callee]))
				}
			})
		} else {
			for _, sid := range old.Procs[oi].Sites {
				if s := old.Sites[sid]; !s.Lib {
					ed.Callees = append(ed.Callees, int32(g.ProcByName[s.Callee]))
				}
			}
		}
		ed.CallStart[i+1] = int32(len(ed.Callees))
	}
	var oldMR *dataflow.ModRef
	if retained {
		oldMR = old.modref
		ed.GlobalsChanged = lang.GlobalsHash(old.Prog) != lang.GlobalsHash(newProg)
	}
	// Mod/ref is itself advanced procedure-granularly: summaries of procs
	// whose call subtree is textually unchanged are inherited, and the
	// fixpoints re-run only over edited procs and their callers.
	adv := dataflow.AdvanceEdit(newProg, oldMR, ed)
	mr := adv.ModRef
	b.mr, g.modref = mr, mr
	st.ModRefFallback, st.ModRefResolved, st.ModRefRounds = adv.Stats.Fallback, adv.Stats.Resolved, adv.Stats.Rounds

	// Interfaces: a procedure whose source and summaries are its old
	// version's keeps its old interface hash.
	g.ifaces = make([]uint64, n)
	moved := make([]bool, n)
	anyMoved := false
	for i, fn := range newProg.Funcs {
		oi := ed.OldIndex[i]
		if oi >= 0 && !ed.Changed[i] && !adv.Solved[i] {
			g.ifaces[i] = old.ifaces[oi]
			continue
		}
		g.ifaces[i] = ifaceHash(fn, mr)
		moved[i] = oi < 0 || g.ifaces[i] != old.ifaces[oi]
		anyMoved = anyMoved || moved[i]
	}
	// Plan: copy a procedure whose source, interface and callees'
	// interfaces are unchanged; rebuild the rest over their CFGs, the
	// mod/ref solve's where it built one. Lay out the vertices, sites and
	// actuals both kinds of body take.
	copyOf := make([]*Proc, n)
	cfgs := adv.CFGs
	nv, ns, na, ne := 0, 0, 0, 0
	for i, p := range g.Procs {
		oi := ed.OldIndex[i]
		reuse := oi >= 0 && !ed.Changed[i] && !moved[i]
		for _, c := range ed.Callees[ed.CallStart[i]:ed.CallStart[i+1]] {
			reuse = reuse && !(anyMoved && moved[c])
		}
		if reuse {
			po := old.Procs[oi]
			copyOf[i] = po
			nv += len(po.Vertices) - skeletonSize(po)
			ns += len(po.Sites)
			for _, sid := range po.Sites {
				na += len(old.Sites[sid].ActualIns) + len(old.Sites[sid].ActualOuts)
			}
			continue
		}
		if cfgs[i] == nil {
			cfgs[i] = cfg.Build(p.Fn)
		}
		sh := b.shapeOf(cfgs[i])
		nv, ns, na = nv+sh.verts, ns+sh.sites, na+sh.acts
		if oi >= 0 {
			ne += int(old.intraEdges[oi])
		}
	}
	for _, p := range g.Procs {
		nv += 1 + b.numFormals(p)
	}
	g.Vertices = make([]Vertex, 0, nv)
	b.sites = make([]Site, 0, ns)
	b.acts = make([]VertexID, 0, na)
	b.edges = make([]Edge, 0, ne)
	b.buildSkeletons()

	// Bodies, in procedure order: copied as blocks from old, or rebuilt.
	var cp bodyCopier
	var sc bodyScratch
	for i, p := range g.Procs {
		if po := copyOf[i]; po != nil {
			if b.copyBody(old, po, p, &cp) {
				st.ProcsReused++
				continue
			}
			// Structural mismatch despite equal hashes (a collision): fall
			// back to an ordinary rebuild. copyBody has left nothing
			// behind for this procedure.
			cfgs[i] = cfg.Build(p.Fn)
		}
		lo := len(b.edges)
		b.edges = skeletonEdges(p, b.edges)
		if err := b.buildProcBody(p, cfgs[i], &sc); err != nil {
			return nil, nil, err
		}
		g.intraEdges[i] = int32(len(b.edges) - lo)
		st.ProcsRebuilt++
	}
	nc := 0
	for i := range b.sites {
		nc += connectBound(&b.sites[i])
	}
	b.edges = slices.Grow(b.edges, nc)
	b.connectProcs()
	b.finish(old, b.edges)
	return g, st, nil
}

// replayable checks the cheap structural preconditions of a body copy:
// statement lists of equal length and matching statement kinds. Equal
// source hashes already imply this (equal normalized source parses to
// equal structure); the check guards against hash collisions.
func replayable(os, ns []lang.Stmt) bool {
	if len(os) != len(ns) {
		return false
	}
	for i := range os {
		if reflect.TypeOf(os[i]) != reflect.TypeOf(ns[i]) {
			return false
		}
	}
	return true
}

// bodyCopier pairs an old procedure's statements with the new version's,
// reused across the procedures one Advance copies.
type bodyCopier struct {
	// os and ns list the old and new procedure's statements in pre-order.
	os, ns []lang.Stmt
	// pos[id-lo] is 1 + the index in os of the old statement numbered id,
	// or 0. A procedure's statements are numbered consecutively in a
	// normalized program, so pos is about as long as the procedure; it is
	// cleared after each procedure, and grows to the longest.
	lo  lang.NodeID
	pos []int32
}

// pair lists po's and pn's statements and indexes the old ones by ID. It
// reports false, with nothing left indexed, if the lists do not line up
// or two old statements share an ID.
func (c *bodyCopier) pair(po, pn *lang.FuncDecl) bool {
	c.os, c.ns = c.os[:0], c.ns[:0]
	lang.WalkStmts(po.Body, func(s lang.Stmt) { c.os = append(c.os, s) })
	lang.WalkStmts(pn.Body, func(s lang.Stmt) { c.ns = append(c.ns, s) })
	if !replayable(c.os, c.ns) || len(c.os) == 0 {
		return len(c.os) == len(c.ns) && len(c.os) == 0
	}
	lo, hi := c.os[0].Base().ID, c.os[0].Base().ID
	for _, s := range c.os {
		id := s.Base().ID
		lo, hi = min(lo, id), max(hi, id)
	}
	if lo < 0 {
		return false
	}
	c.lo = lo
	span := int(hi-lo) + 1
	if span > len(c.pos) {
		c.pos = make([]int32, max(span, 2*len(c.pos)))
	}
	for i, s := range c.os {
		k := s.Base().ID - lo
		if c.pos[k] != 0 {
			c.clear()
			return false
		}
		c.pos[k] = int32(i + 1)
	}
	return true
}

// lookup returns the new statement paired with old statement s.
func (c *bodyCopier) lookup(s lang.Stmt) (lang.Stmt, bool) {
	k := int(s.Base().ID - c.lo)
	if k < 0 || k >= len(c.pos) || c.pos[k] == 0 || c.os[c.pos[k]-1] != s {
		return nil, false
	}
	return c.ns[c.pos[k]-1], true
}

// clear empties pos of the current procedure's statements.
func (c *bodyCopier) clear() {
	for _, s := range c.os {
		c.pos[s.Base().ID-c.lo] = 0
	}
}

// copyBody appends po's body — vertices and call sites — to the graph as
// pn's, whose skeleton is already built, and records the procedure's
// blocks, whose intraprocedural edges finish copies from old's lists.
// Build lays a procedure out as one skeleton range and one body range, so
// the vertices copy as one block with remapped IDs, sites and statements.
// It reports false, leaving the graph as it was, if the old and new
// structures do not line up.
func (b *builder) copyBody(old *Graph, po, pn *Proc, c *bodyCopier) bool {
	skel := skeletonSize(po)
	if skeletonSize(pn) != skel || len(po.Vertices) < skel {
		return false
	}
	oldSkel, newSkel := po.Entry, pn.Entry
	for i := 0; i < skel; i++ {
		ov := po.Vertices[i]
		o, n := &old.Vertices[ov], &b.g.Vertices[newSkel+VertexID(i)]
		if ov != oldSkel+VertexID(i) || o.Kind != n.Kind || o.Param != n.Param || o.Var != n.Var || o.IsReturn != n.IsReturn {
			return false
		}
	}
	body := po.Vertices[skel:]
	oldBody := VertexID(0)
	if len(body) > 0 {
		oldBody = body[0]
	}
	for i, ov := range body {
		if ov != oldBody+VertexID(i) {
			return false
		}
	}
	oldSite := SiteID(0)
	if len(po.Sites) > 0 {
		oldSite = po.Sites[0]
	}
	for i, sid := range po.Sites {
		if sid != oldSite+SiteID(i) {
			return false
		}
	}
	if !c.pair(po.Fn, pn.Fn) {
		return false
	}
	defer c.clear()

	vertBase, siteBase, actBase := VertexID(len(b.g.Vertices)), SiteID(len(b.sites)), len(b.acts)
	blk := blockCopy{
		oldEntry: oldSkel, entry: newSkel, skel: skel,
		oldBody: oldBody, body: vertBase, n: len(body),
		edges: int(old.intraEdges[po.Index]),
	}
	inBody := func(v VertexID) bool { return v >= oldBody && v < oldBody+VertexID(len(body)) }
	undo := func() bool {
		b.g.Vertices = b.g.Vertices[:vertBase]
		b.sites = b.sites[:siteBase]
		b.acts = b.acts[:actBase]
		return false
	}

	// Body vertices, as one block. Attributes are copied verbatim; Stmt
	// points into the new AST (new source positions — line criteria
	// resolve against the new normalized text) and Site is renumbered.
	b.g.Vertices = append(b.g.Vertices, old.Vertices[oldBody:oldBody+VertexID(len(body))]...)
	vs := b.g.Vertices[vertBase:]
	for i := range vs {
		v := &vs[i]
		v.ID = vertBase + VertexID(i)
		v.Proc = pn.Index
		if v.Site >= 0 {
			if v.Site < oldSite || v.Site >= oldSite+SiteID(len(po.Sites)) {
				return undo()
			}
			v.Site = siteBase + (v.Site - oldSite)
		}
		if v.Stmt != nil {
			s, ok := c.lookup(v.Stmt)
			if !ok {
				return undo()
			}
			v.Stmt = s
		}
	}

	// Call sites, in po.Sites order — statement order, the order Build
	// assigns — with their actual lists carved from the shared backing.
	for _, sid := range po.Sites {
		so := old.Sites[sid]
		stmt, ok := c.lookup(so.Stmt)
		if !ok || !inBody(so.CallVertex) {
			return undo()
		}
		sn := Site{
			ID:         siteBase + (sid - oldSite),
			CallerProc: pn.Index,
			Callee:     so.Callee,
			Lib:        so.Lib,
			Stmt:       stmt,
			CallVertex: blk.remap(so.CallVertex),
		}
		lo := len(b.acts)
		for _, a := range so.ActualIns {
			if !inBody(a) {
				return undo()
			}
			b.acts = append(b.acts, blk.remap(a))
		}
		mid := len(b.acts)
		for _, a := range so.ActualOuts {
			if !inBody(a) {
				return undo()
			}
			b.acts = append(b.acts, blk.remap(a))
		}
		hi := len(b.acts)
		sn.ActualIns, sn.ActualOuts = b.acts[lo:mid:mid], b.acts[mid:hi:hi]
		b.sites = append(b.sites, sn)
	}
	b.bodies[pn.Index] = bodySpan{
		lo: vertBase, hi: VertexID(len(b.g.Vertices)),
		siteLo: siteBase, siteHi: SiteID(len(b.sites)),
	}
	b.copies = append(b.copies, blk)
	b.g.intraEdges[pn.Index] = int32(blk.edges)
	return true
}

// ifaceHash hashes the parts of a procedure's interface its callers' PDGs
// depend on: return-ness, arity, and the mod/ref global sets that shape
// actual-in/actual-out vertices and must-kill information. The sets are
// hashed by sorted name (the ModRef accessors' order), not interned ID,
// so signatures stay comparable across versions whose interners differ.
func ifaceHash(fn *lang.FuncDecl, mr *dataflow.ModRef) uint64 {
	h := newFNV()
	if fn.ReturnsValue {
		h.byte(1)
	} else {
		h.byte(0)
	}
	h.byte(byte(len(fn.Params)))
	h.names(mr.FormalInGlobalNames(fn.Name))
	h.names(mr.GMODNames(fn.Name))
	h.names(mr.MustModNames(fn.Name))
	return uint64(h)
}

// fnv64 is 64-bit FNV-1a, the hash hash/fnv's New64a computes, held by
// value so that hashing allocates nothing.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * 1099511628211 }

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// names hashes each name with a 0 terminator, then a 1 closing the list.
func (h *fnv64) names(names []string) {
	for _, k := range names {
		h.str(k)
		h.byte(0)
	}
	h.byte(1)
}
