package sdg

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"

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
	// SummarySitesSeeded / SummaryEdgesSeeded count the call sites (and
	// their summary edges) copied from the old graph because the callee's
	// entire call subtree is unchanged.
	SummarySitesSeeded int
	SummaryEdgesSeeded int
	// SummarySeeded reports that the old graph's summary fixpoint was
	// reused: the new graph carries the seeded edges and only DirtyProcs
	// need their formal-out pair propagation re-run
	// (slice.ComputeSummaryEdgesPartial). When false the new graph needs
	// the full summary computation.
	SummarySeeded bool
	// DirtyProcs lists the new-graph procedure indexes whose summary-edge
	// pairs must be recomputed: procedures whose call subtree contains a
	// rebuilt procedure, plus unchanged callees of rebuilt callers (their
	// pairs are needed to populate the rebuilt callers' new sites).
	DirtyProcs []int
}

// Advance constructs the SDG of newProg, reusing the PDGs of every
// procedure whose build signature is unchanged from old. The result is
// indistinguishable from Build(newProg) — same vertices, same numbering,
// same edges — but unchanged procedures skip CFG construction, control
// dependence, and the reaching-definitions dataflow, and (when old's
// summary edges were computed) most of the summary fixpoint is inherited.
// old is only read; it must be fully built (its engine frozen), and may be
// in use by concurrent readers.
func Advance(old *Graph, newProg *lang.Program) (*Graph, *DeltaStats, error) {
	for _, fn := range newProg.Funcs {
		for _, s := range fn.Stmts() {
			if c, ok := s.(*lang.CallStmt); ok && c.Indirect {
				return nil, nil, fmt.Errorf("sdg: %s: indirect call through %q; apply the funcptr transformation first", c.Pos, c.Callee)
			}
		}
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
	b := &builder{
		g: &Graph{
			Prog:       newProg,
			ProcByName: map[string]int{},
			buildSigs:  sigs,
			procHashes: newHashes,
			modref:     mr,
		},
		mr: mr,
	}
	for i, fn := range newProg.Funcs {
		p := &Proc{Index: i, Name: fn.Name, Fn: fn}
		b.g.Procs = append(b.g.Procs, p)
		b.g.ProcByName[fn.Name] = i
	}

	st := &DeltaStats{}
	reuse := make([]bool, len(b.g.Procs))
	for i, p := range b.g.Procs {
		oi, ok := old.ProcByName[p.Name]
		if !ok {
			continue
		}
		if old.buildSigs[p.Name] != sigs[p.Name] {
			continue
		}
		reuse[i] = replayable(old.Procs[oi].Fn, p.Fn)
	}
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
	for _, p := range b.g.Procs {
		b.buildProcSkeleton(p)
	}

	// Phase B: bodies, in procedure order. vmap carries old → new vertex
	// IDs for replayed procedures; sitemap likewise for their call sites.
	vmap := make([]VertexID, old.NumVertices())
	for i := range vmap {
		vmap[i] = -1
	}
	sitemap := make([]SiteID, len(old.Sites))
	for i := range sitemap {
		sitemap[i] = -1
	}
	for i, p := range b.g.Procs {
		if reuse[i] {
			po := old.Procs[old.ProcByName[p.Name]]
			if replayBody(b, old, po, p, vmap, sitemap) {
				st.ProcsReused++
				continue
			}
			// Structural mismatch despite equal signatures (hash
			// collision): fall back to an ordinary rebuild. Nothing has
			// been mutated for this procedure yet.
			reuse[i] = false
		}
		if err := b.buildProcBody(p); err != nil {
			return nil, nil, err
		}
		st.ProcsRebuilt++
	}
	b.connectProcs()

	seedSummaries(b.g, old, reuse, vmap, st)
	return b.g, st, nil
}

// replayable checks the cheap structural preconditions of a body replay:
// statement lists of equal length and matching statement kinds. Equal build
// signatures already imply this (equal normalized source parses to equal
// structure); the check guards against hash collisions.
func replayable(oldFn, newFn *lang.FuncDecl) bool {
	os, ns := oldFn.Stmts(), newFn.Stmts()
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

// skeletonSize returns the number of skeleton (entry + formal) vertices of
// p; Proc.Vertices lists them first, in creation order.
func skeletonSize(p *Proc) int { return 1 + len(p.FormalIns) + len(p.FormalOuts) }

// replayBody copies po's body vertices, call sites, and intraprocedural
// edges into pn (whose skeleton is already built), preserving Build's
// creation order so IDs match a from-scratch build. It reports false —
// before mutating anything — if the old and new structures do not line up.
func replayBody(b *builder, old *Graph, po, pn *Proc, vmap []VertexID, sitemap []SiteID) bool {
	skel := skeletonSize(po)
	if skeletonSize(pn) != skel || len(pn.Vertices) != skel {
		return false
	}
	for i := 0; i < skel; i++ {
		o, n := old.Vertices[po.Vertices[i]], b.g.Vertices[pn.Vertices[i]]
		if o.Kind != n.Kind || o.Param != n.Param || o.Var != n.Var || o.IsReturn != n.IsReturn {
			return false
		}
	}

	// Old body statements map to new ones positionally: identical
	// normalized source parses to the identical statement sequence.
	os, ns := po.Fn.Stmts(), pn.Fn.Stmts()
	smap := make(map[lang.Stmt]lang.Stmt, len(os))
	for i := range os {
		smap[os[i]] = ns[i]
	}

	for i := 0; i < skel; i++ {
		vmap[po.Vertices[i]] = pn.Vertices[i]
	}

	// Call-site shells first (their IDs are referenced by the body
	// vertices' Site fields), in po.Sites order — which is statement
	// order, the order Build assigns.
	for _, osid := range po.Sites {
		so := old.Sites[osid]
		sn := &Site{
			ID:         SiteID(len(b.g.Sites)),
			CallerProc: pn.Index,
			Callee:     so.Callee,
			Lib:        so.Lib,
			Stmt:       smap[so.Stmt],
		}
		b.g.Sites = append(b.g.Sites, sn)
		pn.Sites = append(pn.Sites, sn.ID)
		sitemap[osid] = sn.ID
	}

	// Body vertices, in creation order. Attributes are copied verbatim;
	// Stmt points into the new AST (new source positions — line criteria
	// resolve against the new normalized text) and Site is renumbered.
	for _, ovid := range po.Vertices[skel:] {
		o := old.Vertices[ovid]
		nv := &Vertex{
			Kind:     o.Kind,
			Proc:     pn.Index,
			Site:     -1,
			Param:    o.Param,
			Var:      o.Var,
			IsReturn: o.IsReturn,
			Label:    o.Label,
		}
		if o.Stmt != nil {
			nv.Stmt = smap[o.Stmt]
		}
		if o.Site >= 0 {
			nv.Site = sitemap[o.Site]
		}
		vmap[ovid] = b.g.AddVertex(nv)
	}

	// Fill the sites' vertex lists through the now-complete vertex map.
	for _, osid := range po.Sites {
		so := old.Sites[osid]
		sn := b.g.Sites[sitemap[osid]]
		sn.CallVertex = vmap[so.CallVertex]
		for _, ai := range so.ActualIns {
			sn.ActualIns = append(sn.ActualIns, vmap[ai])
		}
		for _, ao := range so.ActualOuts {
			sn.ActualOuts = append(sn.ActualOuts, vmap[ao])
		}
	}

	// Intraprocedural control and flow edges. Skeleton control edges were
	// re-added by buildProcSkeleton; AddEdge dedups them. Call, param-in,
	// and param-out edges are re-derived by connectProcs; summary edges
	// are seeded separately.
	for _, ovid := range po.Vertices {
		for _, e := range old.Out(ovid) {
			if e.Kind != EdgeControl && e.Kind != EdgeFlow {
				continue
			}
			if old.Vertices[e.To].Proc != po.Index {
				continue
			}
			b.g.AddEdge(vmap[e.From], vmap[e.To], e.Kind)
		}
	}
	return true
}

// seedSummaries copies the old graph's summary edges wherever they are
// guaranteed still valid, and records which procedures' pair propagation
// the partial summary fixpoint must re-run.
//
// A summary edge at call site s (in caller P, calling Q) depends only on
// Q's call subtree: the same-level realizable paths from Q's formal-ins to
// its formal-outs. If every procedure reachable from Q (including Q) was
// replayed, the old edges at s are exactly the edges a fresh fixpoint
// would produce, so they are copied — provided P itself was replayed, so s
// has an old counterpart to copy from. Every site that does not get
// copies has its callee recorded in DirtyProcs, whose formal-outs seed
// slice.ComputeSummaryEdgesPartial.
func seedSummaries(g *Graph, old *Graph, reuse []bool, vmap []VertexID, st *DeltaStats) {
	if !old.SummariesComputed() {
		// Nothing to inherit: the engine will run the full fixpoint.
		st.SummarySeeded = false
		return
	}
	// deepDirty[i]: procedure i's call subtree contains a rebuilt
	// procedure. Propagate dirtiness caller-ward to a fixpoint.
	deepDirty := make([]bool, len(g.Procs))
	for i := range g.Procs {
		deepDirty[i] = !reuse[i]
	}
	for changed := true; changed; {
		changed = false
		for _, s := range g.Sites {
			if s.Lib {
				continue
			}
			if deepDirty[g.ProcByName[s.Callee]] && !deepDirty[s.CallerProc] {
				deepDirty[s.CallerProc] = true
				changed = true
			}
		}
	}

	need := map[int]bool{}
	for i := range g.Procs {
		if deepDirty[i] {
			need[i] = true
		}
	}
	for i, p := range g.Procs {
		if !reuse[i] {
			// Rebuilt caller: its sites are new, so even deep-clean
			// callees must have their pairs recomputed to populate them.
			for _, sid := range p.Sites {
				s := g.Sites[sid]
				if !s.Lib {
					need[g.ProcByName[s.Callee]] = true
				}
			}
			continue
		}
		po := old.Procs[old.ProcByName[p.Name]]
		for _, osid := range po.Sites {
			so := old.Sites[osid]
			if so.Lib || deepDirty[g.ProcByName[so.Callee]] {
				continue
			}
			st.SummarySitesSeeded++
			for _, ai := range so.ActualIns {
				for _, e := range old.Out(ai) {
					if e.Kind != EdgeSummary {
						continue
					}
					if old.Vertices[e.To].Site != so.ID {
						continue
					}
					if g.AddEdge(vmap[e.From], vmap[e.To], EdgeSummary) {
						st.SummaryEdgesSeeded++
					}
				}
			}
		}
	}
	st.DirtyProcs = make([]int, 0, len(need))
	for i := range need {
		st.DirtyProcs = append(st.DirtyProcs, i)
	}
	sort.Ints(st.DirtyProcs)
	st.SummarySeeded = true
}

// computeBuildSigsWorkers derives each procedure's build signature from
// the normalized program and its mod/ref analysis (see the file comment)
// over a worker pool: the per-procedure hashes (dominated by printing each
// body) are independent. It also returns the raw per-procedure content
// hashes so the graph can retain them for later diffing.
func computeBuildSigsWorkers(prog *lang.Program, mr *dataflow.ModRef, workers int) (sigs, hashes map[string]uint64) {
	hashSlots := make([]uint64, len(prog.Funcs))
	par.For(workers, len(prog.Funcs), func(i int) {
		hashSlots[i] = lang.ProcHash(prog.Funcs[i])
	})
	hashes = make(map[string]uint64, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		hashes[fn.Name] = hashSlots[i]
	}
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
		h := fnv.New64a()
		writeU64(h, hashes[fn.Name])
		writeU64(h, ifaces[fn.Name])
		for _, callee := range directCallees(fn) {
			h.Write([]byte(callee))
			h.Write([]byte{0})
			writeU64(h, ifaces[callee])
		}
		sigSlots[i] = h.Sum64()
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
	h := fnv.New64a()
	if fn.ReturnsValue {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte{byte(len(fn.Params))})
	writeNames(h, mr.FormalInGlobalNames(fn.Name))
	writeNames(h, mr.GMODNames(fn.Name))
	writeNames(h, mr.MustModNames(fn.Name))
	return h.Sum64()
}

// directCallees returns the unique direct callee names of fn, sorted.
func directCallees(fn *lang.FuncDecl) []string {
	set := map[string]bool{}
	for _, s := range fn.Stmts() {
		if c, ok := s.(*lang.CallStmt); ok && !c.Indirect {
			set[c.Callee] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func writeU64(h io.Writer, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

func writeNames(h io.Writer, names []string) {
	for _, k := range names {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
}
