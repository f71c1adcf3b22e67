package sdg

import (
	"reflect"
	"slices"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/par"
)

// This file implements procedure-granular incremental SDG construction:
// Advance builds the graph of an edited program by replaying the procedure
// dependence graphs of untouched procedures from the previous version and
// rebuilding only the procedures an edit actually affects.
//
// The unit of reuse is the "build signature" of a procedure — a hash of
// every input its PDG construction reads:
//
//   - its own normalized source (lang.ProcHash), which covers the
//     signature, body statements, CFG shape, and intraprocedural dataflow;
//   - its own mod/ref interface (formal-in globals and GMOD), which shapes
//     its formal vertices;
//   - the mod/ref interface, return-ness, and arity of every procedure it
//     calls, which shape its call-site actual vertices and kill sets.
//
// If the signature is unchanged between versions, a full rebuild of that
// procedure would produce a structurally identical PDG, so Advance copies
// it. Crucially, the replay creates vertices and call sites in exactly the
// order Build would (all skeletons in procedure order, then all bodies in
// procedure order, sites in statement order), so the advanced graph's
// vertex and site numbering — and therefore every downstream artifact, PDS
// encoding, automaton, and emitted slice — is identical to a from-scratch
// build of the new program. The incremental equivalence oracle
// (TESTING.md, Layer 4) holds Advance to exactly that standard.

// DeltaStats reports what Advance reused and what it had to rebuild.
type DeltaStats struct {
	// ProcsReused / ProcsRebuilt partition the new program's procedures.
	ProcsReused  int
	ProcsRebuilt int
	// ProcsRemoved counts old procedures with no same-name successor.
	ProcsRemoved int
}

// Advance constructs the SDG of newProg, reusing the PDGs of every
// procedure whose build signature is unchanged from old. The result is
// indistinguishable from Build(newProg) — same vertices, same numbering,
// same edges — but unchanged procedures skip CFG construction, control
// dependence, and the reaching-definitions dataflow. old is only read; it
// may be in use by concurrent readers.
func Advance(old *Graph, newProg *lang.Program) (*Graph, *DeltaStats, error) {
	if err := checkDirectCalls(newProg); err != nil {
		return nil, nil, err
	}
	// Hash the new version once; the old version's hashes were retained by
	// its own build, so the diff needs no second print pass.
	newHashes := lang.ProgramHashes(newProg)
	oldHashes := old.procHashes
	if oldHashes == nil {
		oldHashes = lang.ProgramHashes(old.Prog)
	}
	diff := lang.DiffProgramsHashed(old.Prog, newProg, oldHashes, newHashes)
	// Mod/ref is itself advanced procedure-granularly: summaries of procs
	// whose call subtree is textually unchanged are inherited, and the
	// fixpoints re-run only over edited procs and their callers.
	mr := dataflow.AdvanceModRefDiff(newProg, old.Prog, old.modref, diff)
	sigs := computeBuildSigsFromHashes(newProg, mr, newHashes, 1)
	b := newBuilder(newProg, mr, sigs, newHashes)
	b.g.Vertices = make([]Vertex, 0, old.NumVertices())
	b.sites = make([]Site, 0, len(old.Sites))
	b.edges = make([]Edge, 0, old.NumEdges())

	st := &DeltaStats{}
	for name := range old.ProcByName {
		if _, ok := b.g.ProcByName[name]; !ok {
			st.ProcsRemoved++
		}
	}

	// Phase A: skeletons, in procedure order, exactly as Build does. The
	// skeleton is cheap (a handful of vertices from the already-computed
	// mod/ref sets), so it is rebuilt even for reused procedures — which
	// also revalidates the signature: a reused procedure's fresh skeleton
	// must match its old one vertex for vertex.
	b.buildSkeletons()

	// Phase B: bodies, in procedure order. An unchanged procedure's body
	// is copied as blocks from old; the rest are rebuilt.
	var cp bodyCopier
	var sc bodyScratch
	for _, p := range b.g.Procs {
		if oi, ok := old.ProcByName[p.Name]; ok && old.buildSigs[p.Name] == sigs[p.Name] {
			if b.copyBody(old, old.Procs[oi], p, &cp) {
				st.ProcsReused++
				continue
			}
			// Structural mismatch despite equal signatures (hash
			// collision): fall back to an ordinary rebuild. copyBody has
			// left nothing behind for this procedure.
		}
		if err := b.buildProcBody(p, &sc); err != nil {
			return nil, nil, err
		}
		st.ProcsRebuilt++
	}
	b.connectProcs()
	b.finish(b.edges)
	return b.g, st, nil
}

// replayable checks the cheap structural preconditions of a body copy:
// statement lists of equal length and matching statement kinds. Equal build
// signatures already imply this (equal normalized source parses to equal
// structure); the check guards against hash collisions.
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

// bodyCopier maps an old procedure's statements to the new version's
// by lang.NodeID, reused across the procedures one Advance copies.
type bodyCopier struct {
	// os and ns list the old and new procedure's statements in pre-order.
	os, ns []lang.Stmt
	// old[id] and new[id] pair the statement numbered id in the old
	// program with its new counterpart; stamp[id] names the procedure
	// that set them (its index plus one).
	old, new []lang.Stmt
	stamp    []int32
}

// mapStmts pairs os with ns positionally for procedure proc: identical
// normalized source parses to the identical statement sequence. It
// reports false if two old statements share an ID.
func (c *bodyCopier) mapStmts(proc int, os, ns []lang.Stmt) bool {
	tag := int32(proc + 1)
	for i, s := range os {
		id := int(s.Base().ID)
		if id < 0 {
			return false
		}
		if id >= len(c.stamp) {
			n := max(2*len(c.stamp), id+1, 64)
			c.old = append(c.old, make([]lang.Stmt, n-len(c.old))...)
			c.new = append(c.new, make([]lang.Stmt, n-len(c.new))...)
			c.stamp = append(c.stamp, make([]int32, n-len(c.stamp))...)
		}
		if c.stamp[id] == tag {
			return false
		}
		c.old[id], c.new[id], c.stamp[id] = s, ns[i], tag
	}
	return true
}

// lookup returns the new statement paired with old statement s of
// procedure proc.
func (c *bodyCopier) lookup(proc int, s lang.Stmt) (lang.Stmt, bool) {
	id := int(s.Base().ID)
	if id < 0 || id >= len(c.stamp) || c.stamp[id] != int32(proc+1) || c.old[id] != s {
		return nil, false
	}
	return c.new[id], true
}

// copyBody appends po's body — vertices, call sites and intraprocedural
// edges — to the graph as pn's, whose skeleton is already built. Build
// lays a procedure out as one skeleton range and one body range, so the
// vertices copy as one block with remapped IDs, sites and statements, and
// the edges as po's out lists in vertex order, with the skeleton edges
// buildProcSkeleton already emitted left out. That is the order and
// numbering a from-scratch build produces. It reports false, leaving the
// graph as it was, if the old and new structures do not line up.
func (b *builder) copyBody(old *Graph, po, pn *Proc, c *bodyCopier) bool {
	skel := skeletonSize(po)
	if skeletonSize(pn) != skel || len(po.Vertices) < skel {
		return false
	}
	c.os, c.ns = c.os[:0], c.ns[:0]
	lang.WalkStmts(po.Fn.Body, func(s lang.Stmt) { c.os = append(c.os, s) })
	lang.WalkStmts(pn.Fn.Body, func(s lang.Stmt) { c.ns = append(c.ns, s) })
	if !replayable(c.os, c.ns) || !c.mapStmts(po.Index, c.os, c.ns) {
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

	vertBase, siteBase := VertexID(len(b.g.Vertices)), SiteID(len(b.sites))
	remap := func(v VertexID) (VertexID, bool) {
		switch {
		case v >= oldSkel && v < oldSkel+VertexID(skel):
			return newSkel + (v - oldSkel), true
		case v >= oldBody && v < oldBody+VertexID(len(body)):
			return vertBase + (v - oldBody), true
		}
		return 0, false
	}
	undo := func() bool {
		b.g.Vertices = b.g.Vertices[:vertBase]
		b.sites = b.sites[:siteBase]
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
			s, ok := c.lookup(po.Index, v.Stmt)
			if !ok {
				return undo()
			}
			v.Stmt = s
		}
	}

	// Call sites, in po.Sites order — statement order, the order Build
	// assigns — with their actual lists in one backing.
	nacts := 0
	for _, sid := range po.Sites {
		nacts += len(old.Sites[sid].ActualIns) + len(old.Sites[sid].ActualOuts)
	}
	acts := make([]VertexID, 0, nacts)
	for _, sid := range po.Sites {
		so := old.Sites[sid]
		stmt, ok := c.lookup(po.Index, so.Stmt)
		cv, ok2 := remap(so.CallVertex)
		if !ok || !ok2 {
			return undo()
		}
		sn := Site{
			ID:         siteBase + (sid - oldSite),
			CallerProc: pn.Index,
			Callee:     so.Callee,
			Lib:        so.Lib,
			Stmt:       stmt,
			CallVertex: cv,
		}
		lo := len(acts)
		for _, a := range so.ActualIns {
			v, ok := remap(a)
			if !ok {
				return undo()
			}
			acts = append(acts, v)
		}
		mid := len(acts)
		for _, a := range so.ActualOuts {
			v, ok := remap(a)
			if !ok {
				return undo()
			}
			acts = append(acts, v)
		}
		sn.ActualIns, sn.ActualOuts = acts[lo:mid:mid], acts[mid:len(acts):len(acts)]
		b.sites = append(b.sites, sn)
	}

	// Intraprocedural control and flow edges, out list by out list. Call,
	// param-in, and param-out edges are re-derived by connectProcs.
	for _, ov := range po.Vertices {
		for _, e := range old.Out(ov) {
			if e.Kind != EdgeControl && e.Kind != EdgeFlow {
				continue
			}
			to, ok := remap(e.To)
			if !ok || (ov == oldSkel && e.Kind == EdgeControl && e.To < oldSkel+VertexID(skel)) {
				continue // another procedure's vertex, or a skeleton edge
			}
			from, _ := remap(ov)
			b.addEdge(from, to, e.Kind)
		}
	}
	b.bodies[pn.Index] = bodySpan{
		lo: vertBase, hi: VertexID(len(b.g.Vertices)),
		siteLo: siteBase, siteHi: SiteID(len(b.sites)),
	}
	return true
}

// computeBuildSigsWorkers derives each procedure's build signature from
// the normalized program and its mod/ref analysis (see the file comment),
// with the interface and signature hashes over a worker pool. It also
// returns the raw per-procedure content hashes, printed through one
// printer, so the graph can retain them for later diffing.
func computeBuildSigsWorkers(prog *lang.Program, mr *dataflow.ModRef, workers int) (sigs, hashes map[string]uint64) {
	hashes = lang.ProgramHashes(prog)
	return computeBuildSigsFromHashes(prog, mr, hashes, workers), hashes
}

// computeBuildSigsFromHashes derives the build signatures from
// already-computed per-procedure content hashes — the advance path holds
// the new version's hashes from its diff and must not print again.
func computeBuildSigsFromHashes(prog *lang.Program, mr *dataflow.ModRef, hashes map[string]uint64, workers int) map[string]uint64 {
	ifaces := make(map[string]uint64, len(prog.Funcs))
	ifaceSlots := make([]uint64, len(prog.Funcs))
	par.For(workers, len(prog.Funcs), func(i int) {
		ifaceSlots[i] = ifaceHash(prog.Funcs[i], mr)
	})
	for i, fn := range prog.Funcs {
		ifaces[fn.Name] = ifaceSlots[i]
	}
	sigSlots := make([]uint64, len(prog.Funcs))
	par.For(workers, len(prog.Funcs), func(i int) {
		fn := prog.Funcs[i]
		h := newFNV()
		h.u64(hashes[fn.Name])
		h.u64(ifaces[fn.Name])
		for _, callee := range directCallees(fn) {
			h.str(callee)
			h.byte(0)
			h.u64(ifaces[callee])
		}
		sigSlots[i] = uint64(h)
	})
	sigs := make(map[string]uint64, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		sigs[fn.Name] = sigSlots[i]
	}
	return sigs
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

// directCallees returns the unique direct callee names of fn, sorted.
func directCallees(fn *lang.FuncDecl) []string {
	var out []string
	lang.WalkStmts(fn.Body, func(s lang.Stmt) {
		if c, ok := s.(*lang.CallStmt); ok && !c.Indirect {
			out = append(out, c.Callee)
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
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

// u64 hashes v's eight bytes, least significant first.
func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
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
