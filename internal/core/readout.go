package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"specslice/internal/sdg"
)

// This file implements Alg. 1 lines 9–24: reading the specialized program
// off the MRD automaton A6. Every slice the service returns needs only the
// procedure variants — each A6 state's Elems set and the callee of each
// call transition — so the readout ends there, on dense structures:
//
//   - A6 is consumed through its state-indexed adjacency (Out lists), and
//     the per-state Elems sets live in one CSR over A6 states;
//   - variant ordering is a permutation sort over packed (proc,
//     vertex-list) keys, and membership in a variant is a binary search
//     over its sorted vertex list;
//   - the parameter check of every call transition is a merge walk over
//     the source formal and actual lists restricted to the two variants,
//     under the shared formal ordering invariant (positional params
//     ascending, then globals sorted; see sdg.Proc.MatchFormalIn);
//   - all scratch comes from a pooled arena, so a warm readout allocates
//     only the variant list it returns.
//
// The specialized SDG R itself — vertex copies, formal and actual lists,
// induced and interprocedural edges — is built by BuildR, only when called:
// by the §8.3 reslicing check, cmd/sdgdot and the tests.

// roScratch is the pooled per-readout scratch: bump-allocated int32 and
// VertexID buffers and the growable call-edge, name and call-target
// lists. Nothing in it survives into the Result.
type roScratch struct {
	i32buf []int32
	i32off int
	vidbuf []sdg.VertexID
	vidoff int

	callEdges []roCallEdge
	names     []string
	calls     []CallTarget

	order variantOrder
}

type roCallEdge struct {
	callee, caller int32
	site           sdg.SiteID
}

var roPool = sync.Pool{New: func() any { return &roScratch{} }}

func getROScratch() *roScratch {
	sc := roPool.Get().(*roScratch)
	sc.i32off, sc.vidoff = 0, 0
	return sc
}

func putROScratch(sc *roScratch) { roPool.Put(sc) }

func (sc *roScratch) i32(n int) []int32 {
	if sc.i32off+n > len(sc.i32buf) {
		c := 2 * len(sc.i32buf)
		if c < sc.i32off+n {
			c = sc.i32off + n
		}
		if c < 1024 {
			c = 1024
		}
		sc.i32buf = make([]int32, c)
		sc.i32off = 0
	}
	s := sc.i32buf[sc.i32off : sc.i32off+n : sc.i32off+n]
	sc.i32off += n
	clear(s)
	return s
}

func (sc *roScratch) vids(n int) []sdg.VertexID {
	if sc.vidoff+n > len(sc.vidbuf) {
		c := 2 * len(sc.vidbuf)
		if c < sc.vidoff+n {
			c = sc.vidoff + n
		}
		if c < 1024 {
			c = 1024
		}
		sc.vidbuf = make([]sdg.VertexID, c)
		sc.vidoff = 0
	}
	s := sc.vidbuf[sc.vidoff : sc.vidoff+n : sc.vidoff+n]
	sc.vidoff += n
	clear(s)
	return s
}

// variantOrder sorts a permutation of variant indexes by (source proc,
// lexicographic vertex list) — the canonical variant order. Sorting
// through a pointer receiver keeps the sort.Sort call allocation-free.
type variantOrder struct {
	idx    []int32 // the permutation being sorted
	proc   []int32 // per variant: source proc index
	lo, hi []int32 // per variant: vertex range in vdata
	vdata  []sdg.VertexID
}

func (o *variantOrder) Len() int      { return len(o.idx) }
func (o *variantOrder) Swap(i, j int) { o.idx[i], o.idx[j] = o.idx[j], o.idx[i] }
func (o *variantOrder) Less(i, j int) bool {
	a, b := o.idx[i], o.idx[j]
	if o.proc[a] != o.proc[b] {
		return o.proc[a] < o.proc[b]
	}
	va := o.vdata[o.lo[a]:o.hi[a]]
	vb := o.vdata[o.lo[b]:o.hi[b]]
	for k := 0; k < len(va) && k < len(vb); k++ {
		if va[k] != vb[k] {
			return va[k] < vb[k]
		}
	}
	return len(va) < len(vb)
}

// Release is a no-op, kept for callers written when a Result's graph
// storage was pooled. A Result now holds no pooled storage: the readout
// allocates only its variant list, and BuildR allocates R plainly.
func (r *Result) Release() {}

// ReadoutOnly re-runs the readout phase (Alg. 1 lines 9–24) of a completed
// result against its existing A6 into a fresh Result — the isolation hook
// the engine benchmark uses to time the phase and count its allocations.
func ReadoutOnly(src *Result) (*Result, error) {
	res := &Result{Source: src.Source, Enc: src.Enc, A1: src.A1, A6: src.A6}
	if err := res.readout(); err != nil {
		return nil, err
	}
	return res, nil
}

// formalInLess orders actual-in/formal-in vertices by the shared matching
// key: positional parameters (ascending Param) before globals (ascending
// Var) — the order Build creates them in and every variant preserves.
func formalInLess(a, b *sdg.Vertex) bool {
	aPos, bPos := a.Param != sdg.NoParam, b.Param != sdg.NoParam
	if aPos != bPos {
		return aPos
	}
	if aPos {
		return a.Param < b.Param
	}
	return a.Var < b.Var
}

func formalInMatches(f, a *sdg.Vertex) bool {
	if a.Param != sdg.NoParam {
		return f.Param == a.Param
	}
	return f.Param == sdg.NoParam && f.Var == a.Var
}

// formalOutLess orders actual-out/formal-out vertices: the return value
// first, then globals ascending by Var.
func formalOutLess(a, b *sdg.Vertex) bool {
	if a.IsReturn != b.IsReturn {
		return a.IsReturn
	}
	if a.IsReturn {
		return false
	}
	return a.Var < b.Var
}

func formalOutMatches(f, a *sdg.Vertex) bool {
	if a.IsReturn {
		return f.IsReturn
	}
	return !f.IsReturn && f.Var == a.Var
}

// keeps reports whether the variant includes source vertex v.
func (pv *ProcVariant) keeps(v sdg.VertexID) bool {
	_, ok := slices.BinarySearch(pv.Vertices, v)
	return ok
}

// unmatchedActual pairs the actuals the caller variant keeps with the
// formals the callee variant keeps, by one merge walk over both lists in
// their shared order (less), and returns the first kept actual with no
// matching kept formal.
func unmatchedActual(g *sdg.Graph, actuals, formals []sdg.VertexID, caller, callee *ProcVariant,
	less, matches func(f, a *sdg.Vertex) bool) (sdg.VertexID, bool) {
	j := 0
	for _, a := range actuals {
		if !caller.keeps(a) {
			continue
		}
		av := &g.Vertices[a]
		for j < len(formals) && (!callee.keeps(formals[j]) || less(&g.Vertices[formals[j]], av)) {
			j++
		}
		if j == len(formals) || !matches(&g.Vertices[formals[j]], av) {
			return a, true
		}
		j++
	}
	return 0, false
}

// readout implements Alg. 1 lines 9–24 up to the procedure variants of the
// specialized SDG. See the file comment for the representation.
func (r *Result) readout() error {
	a6 := r.A6
	g := r.Source
	enc := r.Enc
	n := a6.NumStates()

	if n == 0 || a6.NumStarts() == 0 {
		return fmt.Errorf("core: slice is empty (criterion depends on nothing)")
	}
	if a6.NumStarts() != 1 {
		return fmt.Errorf("core: internal error: A6 has %d start states", a6.NumStarts())
	}
	q0 := a6.Starts()[0]

	sc := getROScratch()
	defer putROScratch(sc)

	// Pass 1 over A6's adjacency: count the Elems sets (transitions leaving
	// q0, bucketed by target state) and the call-site transitions among
	// non-initial states.
	vstart := sc.i32(n + 1)
	totalV := 0
	for s := 0; s < n; s++ {
		for _, t := range a6.Out(s) {
			if s == q0 {
				if enc.IsSiteSym(t.Sym) {
					return fmt.Errorf("core: internal error: call-site symbol on an initial transition")
				}
				if t.To == q0 {
					return fmt.Errorf("core: internal error: self-loop on the initial state")
				}
				vstart[t.To+1]++
				totalV++
			} else if !enc.IsSiteSym(t.Sym) {
				return fmt.Errorf("core: internal error: vertex symbol %d on a non-initial transition", t.Sym)
			}
		}
	}
	for s := 0; s < n; s++ {
		vstart[s+1] += vstart[s]
	}

	// Pass 2: fill the per-state vertex CSR and the call-edge list.
	vdata := sc.vids(totalV)[:totalV]
	vcur := sc.i32(n)
	copy(vcur, vstart[:n])
	callEdges := sc.callEdges[:0]
	for s := 0; s < n; s++ {
		for _, t := range a6.Out(s) {
			if s == q0 {
				vdata[vcur[t.To]] = enc.SymVertex(t.Sym)
				vcur[t.To]++
			} else {
				callEdges = append(callEdges, roCallEdge{callee: int32(s), caller: int32(t.To), site: enc.SymSite(t.Sym)})
			}
		}
	}
	sc.callEdges = callEdges[:0]

	// Variants: one per state with a non-empty Elems set. Sort each set,
	// check Defn. 2.10's one-procedure-per-element rule, and order the
	// variants canonically by (source proc, lexicographic vertex list).
	nv := 0
	for s := 0; s < n; s++ {
		if vstart[s+1] > vstart[s] {
			nv++
		}
	}
	infoState := sc.i32(nv)
	infoProc := sc.i32(nv)
	infoLo := sc.i32(nv)
	infoHi := sc.i32(nv)
	order := sc.i32(nv)
	vi := 0
	for s := 0; s < n; s++ {
		lo, hi := vstart[s], vstart[s+1]
		if lo == hi {
			continue
		}
		vs := vdata[lo:hi]
		slices.Sort(vs)
		proc := g.Vertices[vs[0]].Proc
		for _, v := range vs[1:] {
			if g.Vertices[v].Proc != proc {
				return fmt.Errorf("core: partition element mixes procedures %s and %s",
					g.Procs[proc].Name, g.Procs[g.Vertices[v].Proc].Name)
			}
		}
		infoState[vi], infoProc[vi] = int32(s), int32(proc)
		infoLo[vi], infoHi[vi] = lo, hi
		order[vi] = int32(vi)
		vi++
	}
	sc.order = variantOrder{idx: order, proc: infoProc, lo: infoLo, hi: infoHi, vdata: vdata}
	sort.Sort(&sc.order)

	// Assign names along the sorted order: a single variant keeps the
	// original name; multiple variants are numbered, and the final-state
	// variant of main keeps "main". Numbered names come from the
	// encoding's cache, so warm repeats allocate nothing.
	if cap(sc.names) < nv {
		sc.names = make([]string, nv)
	}
	names := sc.names[:nv]
	for gi := 0; gi < nv; {
		ge := gi
		for ge < nv && infoProc[order[ge]] == infoProc[order[gi]] {
			ge++
		}
		procIdx := int(infoProc[order[gi]])
		orig := g.Procs[procIdx].Name
		switch {
		case ge-gi == 1:
			names[order[gi]] = orig
		case orig == "main":
			// Keep "main" on the final-state variant.
			num := 1
			for k := gi; k < ge; k++ {
				if a6.IsFinal(int(infoState[order[k]])) {
					names[order[k]] = "main"
				} else {
					names[order[k]] = enc.variantName(procIdx, num)
					num++
				}
			}
		default:
			for k := gi; k < ge; k++ {
				names[order[k]] = enc.variantName(procIdx, k-gi+1)
			}
		}
		gi = ge
	}

	// The variants in canonical order. Each keeps its sorted Elems set and
	// one call target per retained non-library site, in site order, naming
	// the source callee until a call transition names its variant. One
	// vertex array and one call array back the whole list.
	variantOf := make([]int32, n) // per A6 state: variant index + 1
	out := make([]ProcVariant, nv)
	verts := make([]sdg.VertexID, 0, totalV)
	calls := sc.calls[:0]
	callLo := sc.i32(nv + 1)
	for oi := range out {
		vi := order[oi]
		orig := g.Procs[infoProc[vi]]
		vs := vdata[infoLo[vi]:infoHi[vi]]
		if vs[0] != orig.Entry {
			return fmt.Errorf("core: internal error: variant of %s lacks its entry vertex", orig.Name)
		}
		variantOf[infoState[vi]] = int32(oi) + 1
		v0 := len(verts)
		verts = append(verts, vs...)
		pv := &out[oi]
		*pv = ProcVariant{Orig: orig, Name: names[vi], Vertices: verts[v0:len(verts):len(verts)]}
		callLo[oi] = int32(len(calls))
		for _, sid := range orig.Sites {
			if src := g.Sites[sid]; !src.Lib && pv.keeps(src.CallVertex) {
				calls = append(calls, CallTarget{Site: sid, Callee: src.Callee})
			}
		}
	}
	callLo[nv] = int32(len(calls))
	targets := slices.Clone(calls)
	sc.calls = calls[:0]
	for oi := range out {
		out[oi].Calls = targets[callLo[oi]:callLo[oi+1]:callLo[oi+1]]
	}

	// Wire the call transitions (Alg. 1 lines 19–24): q1 --C--> q2 means
	// q2's variant calls q1's at site C. Every actual the caller keeps at C
	// must pair with a formal the callee keeps.
	for _, ce := range callEdges {
		ki, ci := variantOf[ce.callee], variantOf[ce.caller]
		if ki == 0 || ci == 0 {
			return fmt.Errorf("core: internal error: state %d has call transitions but no vertices", ce.callee)
		}
		caller, callee := &out[ci-1], &out[ki-1]
		k := 0
		for k < len(caller.Calls) && caller.Calls[k].Site != ce.site {
			k++
		}
		if k == len(caller.Calls) {
			return fmt.Errorf("core: internal error: caller variant %s lacks site %d", caller.Name, ce.site)
		}
		caller.Calls[k].Callee = callee.Name
		src := g.Sites[ce.site]
		if a, bad := unmatchedActual(g, src.ActualIns, callee.Orig.FormalIns, caller, callee, formalInLess, formalInMatches); bad {
			return fmt.Errorf("core: parameter mismatch: %s has no formal for %s", callee.Name, g.VertexString(a))
		}
		if a, bad := unmatchedActual(g, src.ActualOuts, callee.Orig.FormalOuts, caller, callee, formalOutLess, formalOutMatches); bad {
			return fmt.Errorf("core: parameter mismatch: %s has no formal-out for %s", callee.Name, g.VertexString(a))
		}
	}
	r.variants, r.variantOf = out, variantOf
	return nil
}

// Specialized is the specialized SDG R (Alg. 1's output) with the mapping
// M_C back to the source graph.
type Specialized struct {
	R *sdg.Graph
	// OriginVertex and OriginSite form M_C, indexed by R's dense vertex
	// and site IDs.
	OriginVertex []sdg.VertexID
	OriginSite   []sdg.SiteID
	// VariantsOf maps each source procedure name to the R-proc indices of
	// its specializations (consecutive in R's canonical variant order).
	VariantsOf map[string][]int
}

// BuildR builds the specialized SDG R from the readout's variants and A6,
// with plain allocation, each time it is called. Slicing never needs R:
// emission reads the variants.
//
// R's procedures are the variants, in order. Each copies its source
// vertices in source ID order, keeps the formals, call sites and actuals
// among them, and gets the induced intraprocedural edges (Defn. 3.13).
// Each call transition of A6 then names the callee variant of its site and
// adds the call, parameter-in and parameter-out edges; the readout has
// already checked that every kept actual has its kept formal.
func (r *Result) BuildR() *Specialized {
	g, vars := r.Source, r.variants
	R := &sdg.Graph{Prog: g.Prog, ProcByName: make(map[string]int, len(vars))}
	sp := &Specialized{R: R, VariantsOf: map[string][]int{}}
	base := make([]sdg.VertexID, len(vars))
	// rid maps source vertex v of variant k to its copy in R.
	rid := func(k int, v sdg.VertexID) sdg.VertexID {
		i, _ := slices.BinarySearch(vars[k].Vertices, v)
		return base[k] + sdg.VertexID(i)
	}
	var edges []sdg.Edge
	for k := range vars {
		pv := &vars[k]
		orig := pv.Orig
		rp := &sdg.Proc{Index: k, Name: pv.Name, Fn: orig.Fn}
		R.Procs = append(R.Procs, rp)
		R.ProcByName[rp.Name] = k
		sp.VariantsOf[orig.Name] = append(sp.VariantsOf[orig.Name], k)
		base[k] = sdg.VertexID(len(R.Vertices))
		for _, v := range pv.Vertices {
			cp := g.Vertices[v]
			cp.Proc, cp.Site = k, -1
			R.AddVertex(cp)
		}
		sp.OriginVertex = append(sp.OriginVertex, pv.Vertices...)
		rp.Entry = rid(k, orig.Entry)
		for _, fi := range orig.FormalIns {
			if pv.keeps(fi) {
				rp.FormalIns = append(rp.FormalIns, rid(k, fi))
			}
		}
		for _, fo := range orig.FormalOuts {
			if pv.keeps(fo) {
				rp.FormalOuts = append(rp.FormalOuts, rid(k, fo))
			}
		}
		for _, sid := range orig.Sites {
			src := g.Sites[sid]
			if !pv.keeps(src.CallVertex) {
				continue
			}
			rs := &sdg.Site{
				ID: sdg.SiteID(len(R.Sites)), CallerProc: k,
				Callee: src.Callee, Lib: src.Lib, Stmt: src.Stmt,
				CallVertex: rid(k, src.CallVertex),
			}
			R.Vertices[rs.CallVertex].Site = rs.ID
			for _, a := range src.ActualIns {
				if pv.keeps(a) {
					rs.ActualIns = append(rs.ActualIns, rid(k, a))
					R.Vertices[rid(k, a)].Site = rs.ID
				}
			}
			for _, a := range src.ActualOuts {
				if pv.keeps(a) {
					rs.ActualOuts = append(rs.ActualOuts, rid(k, a))
					R.Vertices[rid(k, a)].Site = rs.ID
				}
			}
			R.Sites = append(R.Sites, rs)
			rp.Sites = append(rp.Sites, rs.ID)
			sp.OriginSite = append(sp.OriginSite, sid)
		}
		for _, v := range pv.Vertices {
			for _, e := range g.Out(v) {
				if (e.Kind == sdg.EdgeControl || e.Kind == sdg.EdgeFlow) && pv.keeps(e.To) {
					edges = append(edges, sdg.Edge{From: rid(k, v), To: rid(k, e.To), Kind: e.Kind})
				}
			}
		}
	}

	// Interprocedural edges (Alg. 1 lines 19–24), from A6's call
	// transitions rather than the variants' call targets: a site with no
	// transition, as when the criterion holds only its call vertex, keeps
	// its source callee and gets no edges.
	a6 := r.A6
	q0 := a6.Starts()[0]
	for s := 0; s < a6.NumStates(); s++ {
		if s == q0 {
			continue
		}
		for _, t := range a6.Out(s) {
			ki, ci := int(r.variantOf[s])-1, int(r.variantOf[t.To])-1
			site := r.Enc.SymSite(t.Sym)
			var rs *sdg.Site
			for _, sid := range R.Procs[ci].Sites {
				if sp.OriginSite[sid] == site {
					rs = R.Sites[sid]
				}
			}
			callee := vars[ki].Orig
			rs.Callee = vars[ki].Name
			edges = append(edges, sdg.Edge{From: rs.CallVertex, To: R.Procs[ki].Entry, Kind: sdg.EdgeCall})
			for _, a := range rs.ActualIns {
				f, _ := callee.MatchFormalIn(g, &R.Vertices[a])
				edges = append(edges, sdg.Edge{From: a, To: rid(ki, f), Kind: sdg.EdgeParamIn})
			}
			for _, a := range rs.ActualOuts {
				f, _ := callee.MatchFormalOut(g, &R.Vertices[a])
				edges = append(edges, sdg.Edge{From: rid(ki, f), To: a, Kind: sdg.EdgeParamOut})
			}
		}
	}
	R.InstallEdges(edges)
	return sp
}
