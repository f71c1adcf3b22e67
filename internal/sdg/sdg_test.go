package sdg

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
)

const fig1Src = `
int g1; int g2; int g3;

void p(int a, int b) {
  g1 = a;
  g2 = b;
  g3 = g2;
}

int main() {
  g2 = 100;
  p(g2, 2);
  p(g2, 3);
  p(4, g1 + g2);
  printf("%d", g2);
  return 0;
}
`

func TestModRefFig1(t *testing.T) {
	prog := lang.MustParse(fig1Src)
	mr := dataflow.ComputeModRef(prog)
	for _, g := range []string{"g1", "g2", "g3"} {
		if !mr.GMOD("p")[g] {
			t.Errorf("GMOD(p) missing %s", g)
		}
		if !mr.MustMod("p")[g] {
			t.Errorf("MustMod(p) missing %s", g)
		}
	}
	if len(mr.UEREF("p")) != 0 {
		t.Errorf("UEREF(p) = %v, want empty (params only feed globals)", mr.UEREF("p").Sorted())
	}
	if got := mr.FormalInGlobals("p"); len(got) != 0 {
		t.Errorf("FormalInGlobals(p) = %v, want empty (paper Fig. 3 has only a and b formal-ins)", got.Sorted())
	}
	if !mr.GMOD("main")["g1"] || !mr.MustMod("main")["g3"] {
		t.Errorf("main summaries wrong: GMOD=%v MustMod=%v", mr.GMOD("main").Sorted(), mr.MustMod("main").Sorted())
	}
}

func TestUERefPartialMod(t *testing.T) {
	src := `
int g;
void maybe(int c) {
  if (c > 0) { g = 1; }
}
int main() {
  maybe(0);
  printf("%d", g);
  return 0;
}
`
	prog := lang.MustParse(src)
	mr := dataflow.ComputeModRef(prog)
	if !mr.GMOD("maybe")["g"] {
		t.Error("GMOD(maybe) missing g")
	}
	if mr.MustMod("maybe")["g"] {
		t.Error("MustMod(maybe) must not contain g (conditional assignment)")
	}
	// g in GMOD−MustMod must yield a formal-in so the old value can pass
	// through the call.
	if !mr.FormalInGlobals("maybe")["g"] {
		t.Error("FormalInGlobals(maybe) missing g")
	}
}

func TestUERefUseBeforeDef(t *testing.T) {
	src := `
int g;
int reader() { return g + 1; }
int main() {
  int x;
  x = reader();
  printf("%d", x);
  return 0;
}
`
	prog := lang.MustParse(src)
	mr := dataflow.ComputeModRef(prog)
	if !mr.UEREF("reader")["g"] {
		t.Error("UEREF(reader) missing g")
	}
	if !mr.UEREF("main")["g"] {
		t.Error("UEREF(main) missing g (exposed through call)")
	}
}

// findVertex locates the unique vertex in proc with the given kind and label.
func findVertex(t *testing.T, g *Graph, proc, label string, kind VertexKind) VertexID {
	t.Helper()
	var found []VertexID
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if g.Procs[v.Proc].Name == proc && v.Kind == kind && g.Label(v.ID) == label {
			found = append(found, v.ID)
		}
	}
	if len(found) != 1 {
		t.Fatalf("vertex %s/%s/%s: found %d", proc, kind, label, len(found))
	}
	return found[0]
}

func TestBuildFig1Shape(t *testing.T) {
	prog := lang.MustParse(fig1Src)
	g := MustBuild(prog)

	p := g.Procs[g.ProcByName["p"]]
	if len(p.FormalIns) != 2 {
		t.Errorf("p formal-ins = %d, want 2 (a, b)", len(p.FormalIns))
	}
	// Formal-outs: g1, g2, g3 (p returns nothing).
	if len(p.FormalOuts) != 3 {
		t.Errorf("p formal-outs = %d, want 3 (g1, g2, g3)", len(p.FormalOuts))
	}

	// Call sites: 3 calls to p + 1 printf.
	userSites, libSites := 0, 0
	for _, s := range g.Sites {
		if s.Lib {
			libSites++
		} else {
			userSites++
		}
	}
	if userSites != 3 || libSites != 1 {
		t.Errorf("sites = %d user + %d lib, want 3 + 1", userSites, libSites)
	}

	// Each call to p: actual-ins = 2 positional (no globals), actual-outs = 3.
	for _, s := range g.SiteCalls("p") {
		if len(s.ActualIns) != 2 {
			t.Errorf("site %d actual-ins = %d, want 2", s.ID, len(s.ActualIns))
		}
		if len(s.ActualOuts) != 3 {
			t.Errorf("site %d actual-outs = %d, want 3", s.ID, len(s.ActualOuts))
		}
	}

	// Flow dependence inside p: g2=b → g3=g2.
	g2b := findVertex(t, g, "p", "g2 = b", KindStmt)
	g3g2 := findVertex(t, g, "p", "g3 = g2", KindStmt)
	found := false
	for _, e := range g.Out(g2b) {
		if e.To == g3g2 && e.Kind == EdgeFlow {
			found = true
		}
	}
	if !found {
		t.Error("missing flow edge g2=b → g3=g2")
	}

	// Param-in edge: formal-in a receives from actual-ins at the three sites.
	fiA, _ := p.FormalInFor(g, 0)
	if n := len(g.In(fiA)); n != 4 { // control from entry + 3 param-in
		t.Errorf("formal-in a has %d in-edges, want 4", n)
	}
}

func TestControlDependenceLoopsAndJumps(t *testing.T) {
	src := `
int g;
int main() {
  int i = 0;
  while (i < 3) {
    if (i == 1) { break; }
    g = g + 1;
    i = i + 1;
  }
  printf("%d", g);
  return 0;
}
`
	g := MustBuild(lang.MustParse(src))
	// g = g+1 must be control dependent on both the while predicate and the
	// break's pseudo-predicate region (Ball–Horwitz: on the if, at least).
	asg := findVertex(t, g, "main", "g = g + 1", KindStmt)
	controllers := map[string]bool{}
	for _, e := range g.In(asg) {
		if e.Kind == EdgeControl {
			controllers[g.Label(e.From)] = true
		}
	}
	// With a conditional break before it, g=g+1 executes only when the if
	// did not take the break: its controllers are the if predicate and the
	// break pseudo-predicate (Ball–Horwitz), not the while directly.
	if !controllers["if i == 1"] {
		t.Errorf("g=g+1 controllers = %v, want to include the if", controllers)
	}
	if !controllers["break"] {
		t.Errorf("g=g+1 controllers = %v, want to include break (Ball–Horwitz)", controllers)
	}
	// The while predicate is in turn controlled by the if/break region
	// (the loop repeats only if the break was not taken).
	whileV := findVertex(t, g, "main", "while i < 3", KindPredicate)
	wctl := map[string]bool{}
	for _, e := range g.In(whileV) {
		if e.Kind == EdgeControl {
			wctl[g.Label(e.From)] = true
		}
	}
	if !wctl["break"] && !wctl["if i == 1"] {
		t.Errorf("while controllers = %v, want if/break", wctl)
	}
}

func TestRecursiveBuild(t *testing.T) {
	src := `
int g1; int g2;
void s(int a, int b) { g1 = b; g2 = a; }
int r(int k) {
  if (k > 0) {
    s(g1, g2);
    r(k - 1);
    s(g1, g2);
  }
  return 0;
}
int main() {
  g1 = 1;
  g2 = 2;
  int x;
  x = r(3);
  printf("%d\n", g1);
  return 0;
}
`
	g := MustBuild(lang.MustParse(src))
	if len(g.SiteCalls("r")) != 2 {
		t.Errorf("r call-sites = %d, want 2 (main and recursive)", len(g.SiteCalls("r")))
	}
	st := g.Statistics()
	if st.Procs != 3 || st.Vertices == 0 || st.Edges == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIndirectCallRejected(t *testing.T) {
	src := `
int f(int a) { return a; }
int main() {
  fnptr p;
  p = f;
  int x;
  x = p(1);
  printf("%d", x);
  return 0;
}
`
	if _, err := Build(lang.MustParse(src)); err == nil {
		t.Fatal("Build accepted an indirect call; want funcptr-transform error")
	}
}

// TestInListsTransposeOutLists checks the in lists In lays out on first
// use, from goroutines racing to that first call: every vertex's in list
// holds exactly the edges into it, ordered by source vertex, the edges
// from one source in their out-list order.
func TestInListsTransposeOutLists(t *testing.T) {
	g := MustBuild(lang.MustParse(fig1Src))
	want := make([][]Edge, g.NumVertices())
	for _, e := range g.Edges() {
		want[e.To] = append(want[e.To], e)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range want {
				if got := g.In(VertexID(v)); !slices.Equal(got, want[v]) {
					errs <- fmt.Sprintf("in list of v%d = %v, want %v", v, got, want[v])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
