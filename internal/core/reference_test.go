package core_test

// Layer 1 reference oracle for the readout, mirroring the
// fsa/reference_test.go pattern: the original map-driven Alg. 1 readout
// (stateInfo maps, map[VertexID]bool membership sets, linear formal
// matching) is relocated here as a differential reference and compared
// for structural identity — vertex, site, and procedure numbering, names,
// formal lists, origin maps, and edge sets — against the specialized SDG
// that Result.BuildR builds on request, on hundreds of random
// program/criterion pairs. The readout's own output, the procedure
// variants, must equal the projection of that R which Result.Variants
// computed when the readout still built R (projectVariants).
//
// One deliberate canonicalization: the historical implementation ordered
// variants by a "%d,%d,…" *string* key, under which vertex list [12] sorts
// before [3]; the reference below uses the numeric lexicographic order the
// dense readout defines. Everything else is the old algorithm verbatim.
//
// The relocated matchFormalIn/matchFormalOut linear scans double as the
// reference for sdg.Proc.MatchFormalIn/MatchFormalOut (the binary search
// over the formal ordering invariant), checked across every source graph
// and specialized result.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/fsa"
	"specslice/internal/funcptr"
	"specslice/internal/lang"
	"specslice/internal/mono"
	"specslice/internal/sdg"
	sliceg "specslice/internal/slice"
	"specslice/internal/workload"
)

// refResult is the reference readout's output: the same shape Result had
// before the dense rewrite (map-typed origin tables, explicit call-target
// maps).
type refResult struct {
	R            *sdg.Graph
	OriginVertex map[sdg.VertexID]sdg.VertexID
	OriginSite   map[sdg.SiteID]sdg.SiteID
	VariantsOf   map[string][]int
	CallTargets  []map[sdg.SiteID]int
}

// refStateInfo captures a non-initial A6 state during the reference
// readout (the former stateInfo).
type refStateInfo struct {
	state    int
	origProc int
	vertices []sdg.VertexID // sorted source vertices (the Elems set)
	isFinal  bool
}

// referenceReadout is the relocated map-based readout, run against the
// result's own A6/encoding/source graph.
func referenceReadout(res *core.Result) (*refResult, error) {
	a6 := res.A6
	g := res.Source
	enc := res.Enc
	r := &refResult{}

	starts := a6.Starts()
	if a6.NumStates() == 0 || len(starts) == 0 {
		return nil, fmt.Errorf("core: slice is empty (criterion depends on nothing)")
	}
	if len(starts) != 1 {
		return nil, fmt.Errorf("core: internal error: A6 has %d start states", len(starts))
	}
	q0 := starts[0]

	// Collect the Elems sets from the transitions leaving q0, and the
	// call-site transitions among non-initial states.
	vertsOf := map[int][]sdg.VertexID{}
	type callEdge struct {
		callee, caller int
		site           sdg.SiteID
	}
	var callEdges []callEdge
	for _, t := range a6.Transitions() {
		if t.From == q0 {
			if enc.IsSiteSym(t.Sym) {
				return nil, fmt.Errorf("core: internal error: call-site symbol on an initial transition")
			}
			if t.To == q0 {
				return nil, fmt.Errorf("core: internal error: self-loop on the initial state")
			}
			vertsOf[t.To] = append(vertsOf[t.To], enc.SymVertex(t.Sym))
			continue
		}
		if !enc.IsSiteSym(t.Sym) {
			return nil, fmt.Errorf("core: internal error: vertex symbol %d on a non-initial transition", t.Sym)
		}
		callEdges = append(callEdges, callEdge{callee: t.From, caller: t.To, site: enc.SymSite(t.Sym)})
	}

	// Build per-state info, checking Defn. 2.10's rule 2.
	var infos []*refStateInfo
	infoByState := map[int]*refStateInfo{}
	for state, vs := range vertsOf {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		proc := g.Vertices[vs[0]].Proc
		for _, v := range vs {
			if g.Vertices[v].Proc != proc {
				return nil, fmt.Errorf("core: partition element mixes procedures")
			}
		}
		infos = append(infos, &refStateInfo{
			state: state, origProc: proc, vertices: vs, isFinal: a6.IsFinal(state),
		})
		infoByState[state] = infos[len(infos)-1]
	}
	for _, ce := range callEdges {
		for _, s := range []int{ce.callee, ce.caller} {
			if _, ok := infoByState[s]; !ok {
				return nil, fmt.Errorf("core: internal error: state %d has call transitions but no vertices", s)
			}
		}
	}

	// Deterministic order: by source proc index, then numeric
	// lexicographic vertex list (the canonicalized form of the historical
	// string key).
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].origProc != infos[j].origProc {
			return infos[i].origProc < infos[j].origProc
		}
		return slices.Compare(infos[i].vertices, infos[j].vertices) < 0
	})

	// Assign names: a single variant keeps the original name; multiple
	// variants are numbered. The final-state variant of main keeps "main".
	byProc := map[int][]*refStateInfo{}
	for _, in := range infos {
		byProc[in.origProc] = append(byProc[in.origProc], in)
	}
	names := map[int]string{} // state -> specialized name
	for procIdx, group := range byProc {
		orig := g.Procs[procIdx].Name
		if len(group) == 1 {
			names[group[0].state] = orig
			continue
		}
		if orig == "main" {
			n := 1
			for _, in := range group {
				if in.isFinal {
					names[in.state] = "main"
				} else {
					names[in.state] = fmt.Sprintf("main_%d", n)
					n++
				}
			}
			continue
		}
		for i, in := range group {
			names[in.state] = fmt.Sprintf("%s_%d", orig, i+1)
		}
	}

	// Construct R.
	R := &sdg.Graph{Prog: g.Prog, ProcByName: map[string]int{}}
	r.R = R
	r.OriginVertex = map[sdg.VertexID]sdg.VertexID{}
	r.OriginSite = map[sdg.SiteID]sdg.SiteID{}
	r.VariantsOf = map[string][]int{}
	stateToRProc := map[int]int{}
	// edges collects R's edges in construction order; the first copy of
	// an edge wins, as the retired AddEdge's dedup kept it.
	var edges []sdg.Edge
	seen := map[sdg.Edge]bool{}
	addEdge := func(from, to sdg.VertexID, kind sdg.EdgeKind) {
		e := sdg.Edge{From: from, To: to, Kind: kind}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}

	for _, in := range infos {
		orig := g.Procs[in.origProc]
		rp := &sdg.Proc{Index: len(R.Procs), Name: names[in.state], Fn: orig.Fn}
		R.Procs = append(R.Procs, rp)
		R.ProcByName[rp.Name] = rp.Index
		stateToRProc[in.state] = rp.Index
		r.VariantsOf[orig.Name] = append(r.VariantsOf[orig.Name], rp.Index)
		r.CallTargets = append(r.CallTargets, map[sdg.SiteID]int{})

		inSet := map[sdg.VertexID]bool{}
		for _, v := range in.vertices {
			inSet[v] = true
		}
		if !inSet[orig.Entry] {
			return nil, fmt.Errorf("core: internal error: variant of %s lacks its entry vertex", orig.Name)
		}

		// Create R vertices (in source-ID order) and site skeletons.
		newID := map[sdg.VertexID]sdg.VertexID{}
		for _, v := range in.vertices {
			cp := g.Vertices[v]
			cp.Proc = rp.Index
			cp.Site = -1 // re-linked below
			id := R.AddVertex(cp)
			newID[v] = id
			r.OriginVertex[id] = v
		}
		rp.Entry = newID[orig.Entry]
		for _, fi := range orig.FormalIns {
			if inSet[fi] {
				rp.FormalIns = append(rp.FormalIns, newID[fi])
			}
		}
		for _, fo := range orig.FormalOuts {
			if inSet[fo] {
				rp.FormalOuts = append(rp.FormalOuts, newID[fo])
			}
		}
		for _, sid := range orig.Sites {
			src := g.Sites[sid]
			if !inSet[src.CallVertex] {
				continue
			}
			rs := &sdg.Site{
				ID: sdg.SiteID(len(R.Sites)), CallerProc: rp.Index,
				Callee: src.Callee, Lib: src.Lib, Stmt: src.Stmt,
				CallVertex: newID[src.CallVertex],
			}
			for _, ai := range src.ActualIns {
				if inSet[ai] {
					rs.ActualIns = append(rs.ActualIns, newID[ai])
				}
			}
			for _, ao := range src.ActualOuts {
				if inSet[ao] {
					rs.ActualOuts = append(rs.ActualOuts, newID[ao])
				}
			}
			R.Sites = append(R.Sites, rs)
			rp.Sites = append(rp.Sites, rs.ID)
			r.OriginSite[rs.ID] = sid
			for _, vid := range append(append([]sdg.VertexID{rs.CallVertex}, rs.ActualIns...), rs.ActualOuts...) {
				R.Vertices[vid].Site = rs.ID
			}
		}

		// Induced intraprocedural edges (Defn. 3.13).
		for _, v := range in.vertices {
			for _, e := range g.Out(v) {
				if (e.Kind == sdg.EdgeControl || e.Kind == sdg.EdgeFlow) && inSet[e.To] {
					addEdge(newID[v], newID[e.To], e.Kind)
				}
			}
		}
	}

	// Wire the interprocedural edges from A6's call-site transitions.
	for _, ce := range callEdges {
		callerIdx, ok1 := stateToRProc[ce.caller]
		calleeIdx, ok2 := stateToRProc[ce.callee]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: internal error: dangling call edge")
		}
		caller := R.Procs[callerIdx]
		callee := R.Procs[calleeIdx]
		var rs *sdg.Site
		for _, sid := range caller.Sites {
			if r.OriginSite[sid] == ce.site {
				rs = R.Sites[sid]
			}
		}
		if rs == nil {
			return nil, fmt.Errorf("core: internal error: caller variant %s lacks site %d", caller.Name, ce.site)
		}
		rs.Callee = callee.Name
		r.CallTargets[callerIdx][ce.site] = calleeIdx
		addEdge(rs.CallVertex, callee.Entry, sdg.EdgeCall)
		for _, ai := range rs.ActualIns {
			fi, ok := refMatchFormalIn(R, callee, ai)
			if !ok {
				return nil, fmt.Errorf("core: parameter mismatch: %s has no formal for %s", callee.Name, R.VertexString(ai))
			}
			addEdge(ai, fi, sdg.EdgeParamIn)
		}
		for _, ao := range rs.ActualOuts {
			fo, ok := refMatchFormalOut(R, callee, ao)
			if !ok {
				return nil, fmt.Errorf("core: parameter mismatch: %s has no formal-out for %s", callee.Name, R.VertexString(ao))
			}
			addEdge(fo, ao, sdg.EdgeParamOut)
		}
	}
	R.InstallEdges(edges)
	return r, nil
}

// refMatchFormalIn / refMatchFormalOut are the retired linear scans —
// the differential reference for sdg.Proc.MatchFormalIn/MatchFormalOut.
func refMatchFormalIn(g *sdg.Graph, p *sdg.Proc, aiID sdg.VertexID) (sdg.VertexID, bool) {
	ai := g.Vertices[aiID]
	for _, fiID := range p.FormalIns {
		fi := g.Vertices[fiID]
		if ai.Param != sdg.NoParam {
			if fi.Param == ai.Param {
				return fiID, true
			}
		} else if fi.Param == sdg.NoParam && fi.Var == ai.Var {
			return fiID, true
		}
	}
	return 0, false
}

func refMatchFormalOut(g *sdg.Graph, p *sdg.Proc, aoID sdg.VertexID) (sdg.VertexID, bool) {
	ao := g.Vertices[aoID]
	for _, foID := range p.FormalOuts {
		fo := g.Vertices[foID]
		if ao.IsReturn {
			if fo.IsReturn {
				return foID, true
			}
		} else if !fo.IsReturn && fo.Var == ao.Var {
			return foID, true
		}
	}
	return 0, false
}

// compareReadout requires full structural identity between the
// on-request R and the reference construction.
func compareReadout(t *testing.T, tag string, res *core.Specialized, ref *refResult) {
	t.Helper()
	R, Q := res.R, ref.R
	if len(R.Vertices) != len(Q.Vertices) || len(R.Sites) != len(Q.Sites) || len(R.Procs) != len(Q.Procs) {
		t.Fatalf("%s: size mismatch: vertices %d/%d sites %d/%d procs %d/%d", tag,
			len(R.Vertices), len(Q.Vertices), len(R.Sites), len(Q.Sites), len(R.Procs), len(Q.Procs))
	}
	for i := range R.Vertices {
		a, b := R.Vertices[i], Q.Vertices[i]
		if a.ID != b.ID || a.Kind != b.Kind || a.Proc != b.Proc || a.Site != b.Site ||
			a.Param != b.Param || a.Var != b.Var || a.IsReturn != b.IsReturn ||
			R.Label(sdg.VertexID(i)) != Q.Label(sdg.VertexID(i)) || a.Stmt != b.Stmt {
			t.Fatalf("%s: vertex %d differs: %+v vs %+v", tag, i, a, b)
		}
		if res.OriginVertex[i] != ref.OriginVertex[sdg.VertexID(i)] {
			t.Fatalf("%s: origin of vertex %d: %d vs %d", tag, i, res.OriginVertex[i], ref.OriginVertex[sdg.VertexID(i)])
		}
	}
	for i := range R.Procs {
		a, b := R.Procs[i], Q.Procs[i]
		if a.Name != b.Name || a.Entry != b.Entry || a.Fn != b.Fn ||
			!slices.Equal(a.FormalIns, b.FormalIns) || !slices.Equal(a.FormalOuts, b.FormalOuts) ||
			!slices.Equal(a.Vertices, b.Vertices) || !slices.Equal(a.Sites, b.Sites) {
			t.Fatalf("%s: proc %d differs: %+v vs %+v", tag, i, a, b)
		}
		if R.ProcByName[a.Name] != i || Q.ProcByName[a.Name] != i {
			t.Fatalf("%s: ProcByName[%s] inconsistent", tag, a.Name)
		}
	}
	for i := range R.Sites {
		a, b := R.Sites[i], Q.Sites[i]
		if a.ID != b.ID || a.CallerProc != b.CallerProc || a.Callee != b.Callee ||
			a.Lib != b.Lib || a.CallVertex != b.CallVertex || a.Stmt != b.Stmt ||
			!slices.Equal(a.ActualIns, b.ActualIns) || !slices.Equal(a.ActualOuts, b.ActualOuts) {
			t.Fatalf("%s: site %d differs: %+v vs %+v", tag, i, a, b)
		}
		if res.OriginSite[i] != ref.OriginSite[sdg.SiteID(i)] {
			t.Fatalf("%s: origin of site %d differs", tag, i)
		}
	}
	edgeSet := func(g *sdg.Graph) map[sdg.Edge]bool {
		out := map[sdg.Edge]bool{}
		for _, e := range g.Edges() {
			out[e] = true
		}
		return out
	}
	re, qe := edgeSet(R), edgeSet(Q)
	if len(re) != len(qe) {
		t.Fatalf("%s: edge count %d vs %d", tag, len(re), len(qe))
	}
	for e := range re {
		if !qe[e] {
			t.Fatalf("%s: edge %+v missing from reference", tag, e)
		}
	}
	if len(res.VariantsOf) != len(ref.VariantsOf) {
		t.Fatalf("%s: VariantsOf sizes differ", tag)
	}
	for name, vs := range ref.VariantsOf {
		if !slices.Equal(res.VariantsOf[name], vs) {
			t.Fatalf("%s: VariantsOf[%s] = %v vs %v", tag, name, res.VariantsOf[name], vs)
		}
	}
	// Call targets: R records the specialized callee on each site; it must
	// name exactly the proc the reference wired.
	for pi, targets := range ref.CallTargets {
		for srcSite, calleeIdx := range targets {
			found := false
			for _, sid := range R.Procs[pi].Sites {
				if res.OriginSite[sid] == srcSite {
					found = true
					if R.Sites[sid].Callee != Q.Procs[calleeIdx].Name {
						t.Fatalf("%s: call target of site %d in proc %d: %s vs %s",
							tag, srcSite, pi, R.Sites[sid].Callee, Q.Procs[calleeIdx].Name)
					}
				}
			}
			if !found {
				t.Fatalf("%s: proc %d lost site %d", tag, pi, srcSite)
			}
		}
	}
}

// projectVariants is the emission view of R as Result.Variants computed it
// when the readout still built R: R's per-procedure vertex and site lists
// mapped back to the source graph through OriginVertex and OriginSite.
// Every non-library R site names the one specialized callee variant its
// call transition wired.
func projectVariants(src *sdg.Graph, sp *core.Specialized) []core.ProcVariant {
	out := make([]core.ProcVariant, len(sp.R.Procs))
	for i, rp := range sp.R.Procs {
		var verts []sdg.VertexID
		for _, rv := range rp.Vertices {
			verts = append(verts, sp.OriginVertex[rv])
		}
		var calls []core.CallTarget
		for _, sid := range rp.Sites {
			if rs := sp.R.Sites[sid]; !rs.Lib {
				calls = append(calls, core.CallTarget{Site: sp.OriginSite[sid], Callee: rs.Callee})
			}
		}
		out[i] = core.ProcVariant{
			Orig:     src.Procs[src.ProcByName[rp.Fn.Name]],
			Name:     rp.Name,
			Vertices: verts,
			Calls:    calls,
		}
	}
	return out
}

// compareVariants requires the readout's variants to equal want element by
// element.
func compareVariants(t *testing.T, tag string, got, want []core.ProcVariant) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d variants, R has %d procedures", tag, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Orig != b.Orig || a.Name != b.Name ||
			!slices.Equal(a.Vertices, b.Vertices) || !slices.Equal(a.Calls, b.Calls) {
			t.Fatalf("%s: variant %d differs: %+v vs %+v", tag, i, a, b)
		}
	}
}

// referenceConfigs is the random corpus: a mix of non-recursive and
// recursive programs (recursion drives multi-variant readouts).
func referenceConfigs(n int) []workload.BenchConfig {
	rng := rand.New(rand.NewSource(0xD15C))
	out := make([]workload.BenchConfig, n)
	for i := range out {
		out[i] = workload.BenchConfig{
			Name:           "refreadout",
			Procs:          5 + rng.Intn(9),
			TargetVertices: 150 + rng.Intn(350),
			CallSites:      12 + rng.Intn(30),
			Slices:         6,
			Seed:           int64(7000 + i),
			Recursive:      i%3 == 0,
		}
	}
	return out
}

// readoutProgram is one program of the readout corpus with its criteria:
// the all-printfs criterion plus six random statement and predicate
// vertices, each in all calling contexts.
type readoutProgram struct {
	g     *sdg.Graph
	enc   *core.Encoding
	specs []core.CriterionSpec
}

// readoutCorpus builds the readout corpus: 40 programs, 10 under -short.
func readoutCorpus() []readoutProgram {
	programs := 40
	if testing.Short() {
		programs = 10
	}
	var out []readoutProgram
	for _, cfg := range referenceConfigs(programs) {
		g := sdg.MustBuild(workload.Generate(cfg))
		rng := rand.New(rand.NewSource(cfg.Seed * 31))
		var specs []core.CriterionSpec
		if vs := core.PrintfCriterion(g, ""); len(vs) > 0 {
			specs = append(specs, core.Vertices(vs))
		}
		var stmtVerts []sdg.VertexID
		for _, v := range g.Vertices {
			if v.Kind == sdg.KindStmt || v.Kind == sdg.KindPredicate {
				stmtVerts = append(stmtVerts, v.ID)
			}
		}
		for k := 0; k < 6 && len(stmtVerts) > 0; k++ {
			specs = append(specs, core.Vertices([]sdg.VertexID{stmtVerts[rng.Intn(len(stmtVerts))]}))
		}
		out = append(out, readoutProgram{g: g, enc: core.Encode(g), specs: specs})
	}
	return out
}

// eachReadoutPair runs check on every program/criterion pair of the corpus
// that specializes (empty slices are not readout material) and requires
// at least 200 pairs, 40 under -short — the acceptance bar of the readout
// oracles.
func eachReadoutPair(t *testing.T, corpus []readoutProgram, check func(tag string, res *core.Result)) {
	t.Helper()
	pairs := 0
	for pi, p := range corpus {
		for si, spec := range p.specs {
			res, err := core.SpecializeWithEncoding(p.enc, spec)
			if err != nil {
				continue
			}
			check(fmt.Sprintf("cfg %d spec %d", pi, si), res)
			pairs++
		}
	}
	min := 200
	if testing.Short() {
		min = 40
	}
	if pairs < min {
		t.Fatalf("only %d program/criterion pairs exercised the readout oracle (want >= %d)", pairs, min)
	}
	t.Logf("readout oracle: %d pairs", pairs)
}

// TestReferenceReadoutDifferential checks the on-request R against the
// relocated map-based reference on every readout pair, and — every fourth
// program — that the monovariant slicer's emission over the shared source
// graph is byte-identical before and after the readouts and R builds ran
// (neither may touch the source graph).
func TestReferenceReadoutDifferential(t *testing.T) {
	corpus := readoutCorpus()
	monoCrit := make([][]sdg.VertexID, len(corpus))
	monoBefore := make([]string, len(corpus))
	for pi, p := range corpus {
		if pi%4 != 0 {
			continue
		}
		monoCrit[pi] = core.PrintfCriterion(p.g, "")
		if len(monoCrit[pi]) > 0 {
			src, err := emit.Source(p.g, mono.Binkley(p.g, sliceg.ComputeSummaries(p.g), monoCrit[pi]).Variants())
			if err != nil {
				t.Fatalf("cfg %d: mono emit: %v", pi, err)
			}
			monoBefore[pi] = src
		}
	}
	eachReadoutPair(t, corpus, func(tag string, res *core.Result) {
		ref, err := referenceReadout(res)
		if err != nil {
			t.Fatalf("%s: reference readout failed where the readout succeeded: %v", tag, err)
		}
		compareReadout(t, tag, res.BuildR(), ref)
	})
	for pi, p := range corpus {
		if monoBefore[pi] == "" {
			continue
		}
		src, err := emit.Source(p.g, mono.Binkley(p.g, sliceg.ComputeSummaries(p.g), monoCrit[pi]).Variants())
		if err != nil {
			t.Fatalf("cfg %d: mono emit after readouts: %v", pi, err)
		}
		if src != monoBefore[pi] {
			t.Fatalf("cfg %d: monovariant emission changed after the readouts and R builds", pi)
		}
	}
}

// TestVariantsViewMatchesR: on every readout pair, the variants the
// readout returns equal the projection of the on-request R
// (projectVariants), which is what Result.Variants returned when the
// readout built R on every request.
func TestVariantsViewMatchesR(t *testing.T) {
	eachReadoutPair(t, readoutCorpus(), func(tag string, res *core.Result) {
		compareVariants(t, tag, res.Variants(), projectVariants(res.Source, res.BuildR()))
	})
}

// TestReslicedReachableDifferential: on the on-request R of every readout
// pair, the reachable configurations the reslicing check reads from the
// live call graph (Encode(R).Reachable) accept exactly the Poststar
// language.
func TestReslicedReachableDifferential(t *testing.T) {
	eachReadoutPair(t, readoutCorpus(), func(tag string, res *core.Result) {
		encR := core.Encode(res.BuildR().R)
		got, err := encR.Reachable()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want, err := referenceReachable(encR)
		if err != nil {
			t.Fatalf("%s: reference: %v", tag, err)
		}
		if !fsa.Equal(got, want) {
			t.Fatalf("%s: R's reachable configurations differ from Poststar's", tag)
		}
	})
}

// TestFormalMatchDifferential checks the binary-search formal matching
// against the retired linear scans on every call site of both source
// graphs and specialized results.
func TestFormalMatchDifferential(t *testing.T) {
	check := func(tag string, g *sdg.Graph) {
		t.Helper()
		for _, site := range g.Sites {
			if site.Lib {
				continue
			}
			idx, ok := g.ProcByName[site.Callee]
			if !ok {
				continue
			}
			callee := g.Procs[idx]
			for _, ai := range site.ActualIns {
				want, wok := refMatchFormalIn(g, callee, ai)
				got, gok := callee.MatchFormalIn(g, &g.Vertices[ai])
				if wok != gok || (wok && want != got) {
					t.Fatalf("%s: MatchFormalIn(%s) = %v,%v want %v,%v", tag, g.VertexString(ai), got, gok, want, wok)
				}
			}
			for _, ao := range site.ActualOuts {
				want, wok := refMatchFormalOut(g, callee, ao)
				got, gok := callee.MatchFormalOut(g, &g.Vertices[ao])
				if wok != gok || (wok && want != got) {
					t.Fatalf("%s: MatchFormalOut(%s) = %v,%v want %v,%v", tag, g.VertexString(ao), got, gok, want, wok)
				}
			}
		}
	}
	n := 12
	if testing.Short() {
		n = 4
	}
	for pi, cfg := range referenceConfigs(n) {
		g := sdg.MustBuild(workload.Generate(cfg))
		check(fmt.Sprintf("cfg %d source", pi), g)
		enc := core.Encode(g)
		if vs := core.PrintfCriterion(g, ""); len(vs) > 0 {
			if res, err := core.SpecializeWithEncoding(enc, core.Vertices(vs)); err == nil {
				check(fmt.Sprintf("cfg %d R", pi), res.BuildR().R)
			}
		}
	}
}

// The retired constructions of the reachable configurations and of the
// Vertices query follow: Encoding.Reachable ran a Poststar saturation from
// main's entry, and Vertices built A0 by intersecting v·Σ_sites* with that
// automaton. Both now read the live call graph directly; the differential
// tests below hold them to the same languages with fsa.Equal.

// referenceReachable is the Poststar construction of the reachable
// configurations: the language of Poststar[P]({(p, entry_main)}) at p.
func referenceReachable(enc *core.Encoding) (*fsa.FSA, error) {
	mainIdx, ok := enc.G.ProcByName["main"]
	if !ok {
		return nil, errors.New("core: program has no main")
	}
	q := fsa.New(enc.PDS.NumLocs)
	f := q.AddState()
	q.SetFinal(f)
	q.Add(0, enc.VertexSym(enc.G.Procs[mainIdx].Entry), f)
	return core.PAutomatonToFSA(enc.PDS.Poststar(q)), nil
}

// referenceVerticesQuery is the Intersect construction of the query A0 of
// core.Vertices(vs) against the reference reachable automaton reach.
func referenceVerticesQuery(enc *core.Encoding, reach *fsa.FSA, vs []sdg.VertexID) (*fsa.FSA, error) {
	raw, err := core.BuildQuery(enc, core.SDGVertices(vs))
	if err != nil {
		return nil, err
	}
	inter := fsa.Intersect(core.PAutomatonToFSA(raw), reach)
	if inter.IsEmpty() {
		return nil, errors.New("core: criterion vertices are unreachable from main")
	}
	return core.FSAToQuery(inter, enc.PDS.NumLocs), nil
}

// reachCase is one program of the reachable-configuration corpus.
type reachCase struct {
	name string
	g    *sdg.Graph
	// queries is how many single-vertex Vertices queries to spread over
	// the program's vertices (0 compares the reachable automaton only;
	// -1 queries every vertex).
	queries int
}

// Hand-written shapes the generator does not produce.
const (
	// u is never called, and w is called only from u.
	uncalledSrc = `
int g;
void w(int a) { g = a; }
void u(int a) {
  w(a);
  printf("%d", g);
}
int main() {
  g = 1;
  printf("%d", g);
  return 0;
}
`
	// Calls after return and after break.
	deadCallsSrc = `
int g;
int f(int a) {
  return a + 1;
  g = f(a);
}
int h(int a) { return a; }
int k(int a) { return a * 2; }
int main() {
  int x;
  int i;
  i = 0;
  x = 0;
  while (i < 3) {
    x = f(i);
    break;
    x = h(x);
  }
  printf("%d", x);
  return 0;
  x = k(2);
}
`
	mutualSrc = `
int g;
void odd(int n) {
  if (n > 0) {
    g = g + 1;
    even(n - 1);
  }
}
void even(int n) {
  if (n > 0) {
    odd(n - 1);
  }
  printf("%d", g);
}
int main() {
  g = 0;
  even(4);
  printf("%d", g);
  return 0;
}
`
	selfMainSrc = `
int n;
int main() {
  int x;
  x = n;
  if (n > 0) {
    n = n - 1;
    main();
  }
  printf("%d", x);
  return 0;
}
`
	// Indirect calls through a global pointer set in a callee; h is only
	// ever reached through the dispatch procedure.
	indirectSrc = `
int f(int a) { return a * 2; }
int h(int a) { return a + 1; }
fnptr gp;
void set(fnptr q) { gp = q; }
int main() {
  fnptr lp;
  int x;
  lp = f;
  set(lp);
  set(h);
  x = gp(5);
  printf("%d", x);
  return 0;
}
`
	indirectLocalSrc = `
int f(int a, int b) { return a + b; }
int g(int a, int b) { return a; }
int main() {
  fnptr p;
  int x;
  int c;
  scanf("%d", &c);
  if (c > 0) { p = f; } else { p = &g; }
  x = p(1, 2);
  printf("%d", x);
  return 0;
}
`
)

// orphanGraph is a hand-built SDG with vertices no control or flow edge
// reaches from their procedure's entry, which sdg.Build never emits: an
// orphan statement in main and in p, and the call vertex of main's site
// calling q, so q is never entered and its own site calling p is not live.
func orphanGraph() *sdg.Graph {
	g := &sdg.Graph{ProcByName: map[string]int{}}
	var edges []sdg.Edge
	edge := func(from, to sdg.VertexID, kind sdg.EdgeKind) {
		edges = append(edges, sdg.Edge{From: from, To: to, Kind: kind})
	}
	vertex := func(p *sdg.Proc, kind sdg.VertexKind, site sdg.SiteID) sdg.VertexID {
		return g.AddVertex(sdg.Vertex{Kind: kind, Proc: p.Index, Site: site, Param: sdg.NoParam})
	}
	proc := func(name string) *sdg.Proc {
		p := &sdg.Proc{Index: len(g.Procs), Name: name}
		g.Procs = append(g.Procs, p)
		g.ProcByName[name] = p.Index
		p.Entry = vertex(p, sdg.KindEntry, -1)
		return p
	}
	call := func(caller, callee *sdg.Proc, live bool) {
		s := &sdg.Site{ID: sdg.SiteID(len(g.Sites)), CallerProc: caller.Index, Callee: callee.Name}
		g.Sites = append(g.Sites, s)
		caller.Sites = append(caller.Sites, s.ID)
		s.CallVertex = vertex(caller, sdg.KindCall, s.ID)
		if live {
			edge(caller.Entry, s.CallVertex, sdg.EdgeControl)
		}
		edge(s.CallVertex, callee.Entry, sdg.EdgeCall)
	}
	main, p, q := proc("main"), proc("p"), proc("q")
	s1, s2, orphan := vertex(main, sdg.KindStmt, -1), vertex(main, sdg.KindStmt, -1), vertex(main, sdg.KindStmt, -1)
	edge(main.Entry, s1, sdg.EdgeControl)
	edge(s1, s2, sdg.EdgeFlow)
	edge(orphan, s2, sdg.EdgeFlow)
	vertex(p, sdg.KindStmt, -1)
	call(main, p, true)
	call(main, q, false)
	call(p, p, true)
	call(q, p, true)
	g.InstallEdges(edges)
	return g
}

// reachCorpus returns the differential corpus: the 12 Fig. 17 suites (the
// four large ones compared on the reachable automaton only), generated
// programs of 3–16 procedures with every third recursive, indirect-call
// programs after funcptr.Transform, and the hand-written shapes above.
func reachCorpus(t *testing.T, generated int) []reachCase {
	var out []reachCase
	for i, cfg := range workload.Benchmarks() {
		g := sdg.MustBuild(workload.Generate(cfg))
		q := 16
		if i >= 8 {
			q = 0
		}
		out = append(out, reachCase{cfg.Name, g, q})
	}
	rng := rand.New(rand.NewSource(0x5EAC))
	for i := 0; i < generated; i++ {
		procs := 3 + rng.Intn(14)
		cfg := workload.BenchConfig{
			Name:           "reach",
			Procs:          procs,
			TargetVertices: 40 + rng.Intn(200),
			CallSites:      procs + rng.Intn(3*procs),
			Seed:           int64(9000 + i),
			Recursive:      i%3 == 0,
		}
		out = append(out, reachCase{fmt.Sprintf("generated %d", i), sdg.MustBuild(workload.Generate(cfg)), 8})
	}
	for _, src := range [][2]string{
		{"fig15", workload.Fig15Source}, {"indirect", indirectSrc}, {"indirect-local", indirectLocalSrc},
	} {
		prog, created, err := funcptr.Transform(lang.MustParse(src[1]))
		if err != nil || created == 0 {
			t.Fatalf("%s: funcptr.Transform: %d dispatch procedures, %v", src[0], created, err)
		}
		out = append(out, reachCase{src[0], sdg.MustBuild(prog), -1})
	}
	for _, src := range [][2]string{
		{"uncalled", uncalledSrc}, {"dead-calls", deadCallsSrc}, {"mutual", mutualSrc},
		{"self-main", selfMainSrc}, {"fig1", workload.Fig1Source}, {"fig2", workload.Fig2Source},
	} {
		out = append(out, reachCase{src[0], sdg.MustBuild(lang.MustParse(src[1])), -1})
	}
	return append(out, reachCase{"orphans", orphanGraph(), -1})
}

func reachCorpusSize() int {
	if testing.Short() {
		return 50
	}
	return 200
}

// equalToDFA reports whether a accepts exactly L(d), for a deterministic
// d. It walks a's subset construction in lockstep with d: every pair
// (subset, d-state) reached by a common word must agree on acceptance, and
// on every symbol the subset must move to a nonempty set exactly when d
// has a transition. Both sides are trimmed first, so a nonempty subset or
// an existing d-state always accepts some continuation.
//
// The walk runs no minimizer, so it checks the live-call-graph automata
// independently of fsa.Equal, which TestReachableDifferential runs beside
// it on every program.
func equalToDFA(a, d *fsa.FSA) bool {
	a, d = a.Trim(), d.Trim()
	if a.NumStarts() == 0 || d.NumStarts() == 0 {
		return a.NumStarts() == d.NumStarts()
	}
	if !d.IsDeterministic() {
		panic("equalToDFA: d is not deterministic")
	}
	type pair struct {
		set string // sorted member list of a's subset
		q   int
	}
	key := func(set []int) string { return fmt.Sprint(set) }
	seen := map[pair]bool{}
	type item struct {
		set []int
		q   int
	}
	start := a.Starts()
	work := []item{{start, d.Starts()[0]}}
	seen[pair{key(start), work[0].q}] = true
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		final := false
		moves := map[fsa.Symbol][]int{}
		for _, s := range it.set {
			final = final || a.IsFinal(s)
			for _, t := range a.Out(s) {
				moves[t.Sym] = append(moves[t.Sym], t.To)
			}
		}
		if final != d.IsFinal(it.q) || len(moves) != len(d.Out(it.q)) {
			return false
		}
		for _, t := range d.Out(it.q) {
			next, ok := moves[t.Sym]
			if !ok {
				return false
			}
			slices.Sort(next)
			next = slices.Compact(next)
			if p := (pair{key(next), t.To}); !seen[p] {
				seen[p] = true
				work = append(work, item{next, t.To})
			}
		}
	}
	return true
}

// TestReachableDifferential: the live-call-graph reachable automaton
// accepts exactly the Poststar language on every corpus program.
func TestReachableDifferential(t *testing.T) {
	for _, c := range reachCorpus(t, reachCorpusSize()) {
		enc := core.Encode(c.g)
		got, err := enc.Reachable()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := referenceReachable(enc)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !equalToDFA(want, got) {
			t.Fatalf("%s: reachable configurations differ from Poststar's", c.name)
		}
		if !fsa.Equal(got, want) {
			t.Fatalf("%s: fsa.Equal disagrees with the lockstep walk", c.name)
		}
	}
}

// TestVerticesQueryDifferential: the Vertices query built from the live
// call graph accepts the same configurations as the Intersect
// construction, and fails exactly when it does, for single-vertex queries
// spread over each program and for all of its printf actuals.
func TestVerticesQueryDifferential(t *testing.T) {
	queries, failures := 0, 0
	for _, c := range reachCorpus(t, reachCorpusSize()) {
		if c.queries == 0 {
			continue
		}
		enc := core.Encode(c.g)
		reach, err := referenceReachable(enc)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		n := len(c.g.Vertices)
		step := 1
		if c.queries > 0 {
			step = max(1, n/c.queries)
		}
		var crits [][]sdg.VertexID
		for v := 0; v < n; v += step {
			crits = append(crits, []sdg.VertexID{sdg.VertexID(v)})
		}
		if vs := core.PrintfCriterion(c.g, ""); len(vs) > 0 {
			crits = append(crits, vs)
		}
		for _, vs := range crits {
			got, gerr := core.BuildQuery(enc, core.Vertices(vs))
			want, werr := referenceVerticesQuery(enc, reach, vs)
			queries++
			if gerr != nil || werr != nil {
				if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("%s %v: error %v, reference error %v", c.name, vs, gerr, werr)
				}
				failures++
				continue
			}
			if !fsa.Equal(core.PAutomatonToFSA(got), core.PAutomatonToFSA(want)) {
				t.Fatalf("%s %v: query language differs from the Intersect construction", c.name, vs)
			}
		}
	}
	t.Logf("%d queries, %d unreachable from main", queries, failures)
}

// TestMRDSliceAutomataDifferential checks fsa.MRD on the automata serving
// gives it: partial DFAs of a few states over thousands of symbols, unlike
// the random NFAs over a handful of symbols in internal/fsa. The inputs are
// the polyvariant A1 of every per-procedure printf criterion and of up to
// 16 evenly spaced statement lines on the 8 Siemens suites, and of gzip's
// all-printf criterion. A6 must have the state and transition counts of
// the Moore chain's result, and its reversal must accept exactly A1's
// reversed language, by a walk that runs no minimizer. The same must hold
// for MRD of A1 with twinned states, and there the refinement must merge
// states on at least half of the inputs.
func TestMRDSliceAutomataDifferential(t *testing.T) {
	checked, merged := 0, 0
	check := func(name string, enc *core.Encoding, vs []sdg.VertexID) {
		t.Helper()
		if _, err := core.BuildQuery(enc, core.Vertices(vs)); err != nil {
			return // a criterion main does not reach has no A1
		}
		res, err := core.SpecializeWithEncoding(enc, core.Vertices(vs))
		if err != nil {
			t.Fatalf("%s %v: %v", name, vs, err)
		}
		// The reversed slice automata determinize to minimal DFAs, so MRD
		// also runs on A1 with twinned states, where it must merge states.
		twinned, st := fsa.MRD(twinStates(res.A1))
		if st.DetStates > twinned.NumStates() {
			merged++
		}
		moore := res.A1.Reverse().Determinize().MinimizeMoore().Reverse()
		for i, a6 := range []*fsa.FSA{res.A6, twinned} {
			tag := []string{"A6", "twinned A6"}[i]
			if a6.NumStates() != moore.NumStates() || a6.NumTransitions() != moore.NumTransitions() {
				t.Fatalf("%s %v: %s has %d states and %d transitions, the Moore chain %d and %d", name, vs, tag,
					a6.NumStates(), a6.NumTransitions(), moore.NumStates(), moore.NumTransitions())
			}
			if !equalToDFA(res.A1.Reverse(), a6.Reverse()) {
				t.Fatalf("%s %v: %s does not accept A1's language", name, vs, tag)
			}
		}
		checked++
	}
	for _, cfg := range workload.SmallBenchmarks() {
		// Parsing the printed program numbers its lines.
		g := sdg.MustBuild(lang.MustParse(lang.Print(workload.Generate(cfg))))
		enc := core.Encode(g)
		for _, p := range g.Procs {
			if vs := core.PrintfCriterion(g, p.Name); len(vs) > 0 {
				check(cfg.Name+" printf:"+p.Name, enc, vs)
			}
		}
		lines := map[int][]sdg.VertexID{}
		for _, v := range g.Vertices {
			if v.Kind == sdg.KindStmt && v.Stmt != nil {
				l := v.Stmt.Base().Pos.Line
				lines[l] = append(lines[l], v.ID)
			}
		}
		keys := make([]int, 0, len(lines))
		for l := range lines {
			keys = append(keys, l)
		}
		sort.Ints(keys)
		for i := 0; i < len(keys); i += max(1, len(keys)/16) {
			check(fmt.Sprintf("%s line:%d", cfg.Name, keys[i]), enc, lines[keys[i]])
		}
	}
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name == "gzip" {
			g := sdg.MustBuild(workload.Generate(cfg))
			check("gzip printf", core.Encode(g), core.PrintfCriterion(g, ""))
		}
	}
	if merged*2 < checked {
		t.Fatalf("the refinement merged states on only %d of %d twinned automata", merged, checked)
	}
	t.Logf("%d slice automata, %d twinned ones merged", checked, merged)
}

// twinStates returns an automaton for L(a) in which every state s has a
// twin s+n: both have s's incoming transitions, and s's outgoing ones are
// split between them, so subsets that differ only in which twin they hold
// are equivalent.
func twinStates(a *fsa.FSA) *fsa.FSA {
	n := a.NumStates()
	tw := fsa.New(2 * n)
	for s := 0; s < n; s++ {
		if a.IsStart(s) {
			tw.SetStart(s)
			tw.SetStart(s + n)
		}
		if a.IsFinal(s) {
			tw.SetFinal(s)
			tw.SetFinal(s + n)
		}
	}
	a.Each(func(t fsa.Transition) {
		from := t.From + n*(int(t.Sym)&1)
		tw.Add(from, t.Sym, t.To)
		tw.Add(from, t.Sym, t.To+n)
	})
	return tw
}
