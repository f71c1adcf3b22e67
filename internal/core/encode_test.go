package core

import (
	"fmt"
	"testing"

	"specslice/internal/fsa"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestEncodeRuleSchema checks the Fig. 8 encoding: one internal rule per
// control/flow edge, one push rule per call/param-in edge, one pop rule per
// formal-out with outgoing param-out edges plus one internal rule per
// param-out edge (from the p_fo location).
func TestEncodeRuleSchema(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	enc := Encode(g)

	var control, flow, call, paramIn, paramOut int
	fosWithEdges := map[sdg.VertexID]bool{}
	for _, e := range g.Edges() {
		switch e.Kind {
		case sdg.EdgeControl:
			control++
		case sdg.EdgeFlow:
			flow++
		case sdg.EdgeCall:
			call++
		case sdg.EdgeParamIn:
			paramIn++
		case sdg.EdgeParamOut:
			paramOut++
			fosWithEdges[e.From] = true
		}
	}
	var internal, push, pop int
	for _, r := range enc.PDS.Rules {
		switch r.N {
		case 0:
			pop++
		case 1:
			internal++
		case 2:
			push++
		}
	}
	if want := control + flow + paramOut; internal != want {
		t.Errorf("internal rules = %d, want %d", internal, want)
	}
	if want := call + paramIn; push != want {
		t.Errorf("push rules = %d, want %d", push, want)
	}
	if pop != len(fosWithEdges) {
		t.Errorf("pop rules = %d, want %d (one per formal-out with param-out edges)", pop, len(fosWithEdges))
	}
	// Control locations: p plus one per popped formal-out.
	if enc.PDS.NumLocs != 1+len(fosWithEdges) {
		t.Errorf("control locations = %d, want %d", enc.PDS.NumLocs, 1+len(fosWithEdges))
	}
}

func TestSymbolCodec(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	enc := Encode(g)
	for _, v := range g.Vertices {
		sym := enc.VertexSym(v.ID)
		if enc.IsSiteSym(sym) || enc.SymVertex(sym) != v.ID {
			t.Fatalf("vertex symbol roundtrip failed for %d", v.ID)
		}
	}
	for _, s := range g.Sites {
		sym := enc.SiteSym(s.ID)
		if !enc.IsSiteSym(sym) || enc.SymSite(sym) != s.ID {
			t.Fatalf("site symbol roundtrip failed for %d", s.ID)
		}
	}
	if got := len(enc.Alphabet()); got != enc.NumSymbols() {
		t.Errorf("alphabet size %d != %d", got, enc.NumSymbols())
	}
}

// TestPkExponential pins the §4.3 exponential behavior: Pk yields 2^k − 1
// specializations of Pk (every nonempty live-global pattern).
func TestPkExponential(t *testing.T) {
	for k := 1; k <= 5; k++ {
		g := sdg.MustBuild(workload.PkProgram(k))
		res, err := Specialize(g, Configs(configsFor(g, PrintfCriterion(g, "main"))))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := res.VariantCounts()["Pk"], (1<<k)-1; got != want {
			t.Errorf("k=%d: %d specializations of Pk, want 2^%d−1 = %d", k, got, k, want)
		}
		if err := CheckNoMismatches(res.BuildR().R); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestCriterionValidation exercises the error paths of criterion building.
func TestCriterionValidation(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	enc := Encode(g)
	cases := []CriterionSpec{
		Configs{{Vertex: sdg.VertexID(len(g.Vertices) + 5)}},
		Configs{{Vertex: 0, Stack: []sdg.SiteID{99}}},
		Configs{},
		SDGVertices{},
		Vertices{},
	}
	for i, spec := range cases {
		if _, err := spec.buildQuery(enc); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Out-of-range vertices get Configs' error from every vertex
	// criterion: past the end they used to read as call-site symbols,
	// -1 as epsilon, and below that they panicked.
	for _, v := range []sdg.VertexID{sdg.VertexID(len(g.Vertices)), sdg.VertexID(len(g.Vertices) + 2), -1, -3} {
		want := fmt.Sprintf("core: criterion vertex %d out of range", v)
		for _, spec := range []CriterionSpec{Vertices{0, v}, SDGVertices{0, v}} {
			if _, err := spec.buildQuery(enc); err == nil || err.Error() != want {
				t.Errorf("%T%v: error %v, want %q", spec, spec, err, want)
			}
		}
	}
}

// TestReachableConfigs: every criterion config used in Fig. 1's slice is
// reachable; configurations with impossible stacks are not.
func TestReachableConfigs(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	enc := Encode(g)
	reach, err := enc.Reachable()
	if err != nil {
		t.Fatal(err)
	}
	// Main's printf actual-in with empty stack is reachable.
	crit := PrintfCriterion(g, "main")
	if !reach.Accepts([]fsa.Symbol{enc.VertexSym(crit[0])}) {
		t.Error("printf actual-in with empty stack must be reachable")
	}
	// p's entry with empty stack is NOT a reachable configuration.
	pEntry := g.Procs[g.ProcByName["p"]].Entry
	if reach.Accepts([]fsa.Symbol{enc.VertexSym(pEntry)}) {
		t.Error("(entry_p, ε) must be unreachable (p always has a caller)")
	}
	// p's entry with each call-site stack is reachable.
	for _, s := range g.SiteCalls("p") {
		if !reach.Accepts([]fsa.Symbol{enc.VertexSym(pEntry), enc.SiteSym(s.ID)}) {
			t.Errorf("(entry_p, C%d) must be reachable", s.ID)
		}
	}
}

// TestSpecializeIsDeterministic: two runs produce identical specialized
// programs (naming and structure).
func TestSpecializeIsDeterministic(t *testing.T) {
	a := specializeSrc(t, fig2Src).BuildR()
	b := specializeSrc(t, fig2Src).BuildR()
	if len(a.R.Procs) != len(b.R.Procs) {
		t.Fatalf("proc counts differ")
	}
	for i := range a.R.Procs {
		if a.R.Procs[i].Name != b.R.Procs[i].Name {
			t.Errorf("proc %d: %q vs %q", i, a.R.Procs[i].Name, b.R.Procs[i].Name)
		}
		if len(a.R.Procs[i].Vertices) != len(b.R.Procs[i].Vertices) {
			t.Errorf("proc %d sizes differ", i)
		}
	}
}

// TestEncodeAllocs holds Encode to a number of allocations that does not
// grow with the graph: each rule is a value in one exactly sized array
// and NewPrestarEngine's index arrays are sized before they are filled,
// so gzip (16,804 rules) allocates within a small constant of tcas (915).
// A per-edge or per-rule allocation would show here as thousands more,
// and a list grown by appending as a dozen or more.
func TestEncodeAllocs(t *testing.T) {
	allocs := func(name string) float64 {
		for _, cfg := range workload.Benchmarks() {
			if cfg.Name == name {
				g := sdg.MustBuild(workload.Generate(cfg))
				return testing.AllocsPerRun(5, func() { Encode(g) })
			}
		}
		t.Fatalf("no %s suite", name)
		return 0
	}
	small, large := allocs("tcas"), allocs("gzip")
	t.Logf("Encode allocations: tcas %.0f, gzip %.0f", small, large)
	if large > small+8 {
		t.Errorf("Encode allocates %.0f times on gzip, %.0f on tcas: want within 8", large, small)
	}
}
