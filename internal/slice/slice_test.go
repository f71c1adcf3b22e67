package slice

import (
	"testing"

	"specslice/internal/lang"
	"specslice/internal/sdg"
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

// printfCriterion returns the actual-in vertices of the first printf site.
func printfCriterion(g *sdg.Graph) []sdg.VertexID {
	for _, s := range g.Sites {
		if s.Lib && s.Callee == "printf" {
			return append([]sdg.VertexID(nil), s.ActualIns...)
		}
	}
	return nil
}

func labelsIn(g *sdg.Graph, set VSet, proc string) map[string]bool {
	out := map[string]bool{}
	for v := range set {
		vx := &g.Vertices[v]
		if g.Procs[vx.Proc].Name == proc {
			out[vx.Kind.String()+":"+g.Label(v)] = true
		}
	}
	return out
}

// TestBackwardFig1 reproduces the paper's Fig. 1(a)/Fig. 3 closure slice:
// within p, the slice holds {entry, a, b, g1=a, g2=b, g1-out, g2-out} and
// excludes g3=g2 and the g3 formal-out; within main it excludes g2=100.
func TestBackwardFig1(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	res := Backward(g, ComputeSummaries(g), printfCriterion(g))

	pl := labelsIn(g, res, "p")
	for _, want := range []string{"entry:p", "formal-in:p: a", "formal-in:p: b", "stmt:g1 = a", "stmt:g2 = b", "formal-out:p: global g1 out", "formal-out:p: global g2 out"} {
		if !pl[want] {
			t.Errorf("slice in p missing %q; have %v", want, pl)
		}
	}
	for _, bad := range []string{"stmt:g3 = g2", "formal-out:p: global g3 out"} {
		if pl[bad] {
			t.Errorf("slice in p wrongly contains %q", bad)
		}
	}

	ml := labelsIn(g, res, "main")
	if ml["stmt:g2 = 100"] {
		t.Error("slice wrongly contains g2 = 100 (killed by MustMod at the first call)")
	}
	if ml["stmt:return 0"] {
		t.Error("slice wrongly contains return 0")
	}
	if !ml["call:call p"] {
		t.Error("slice missing the calls to p")
	}
	if !ml["entry:main"] {
		t.Error("slice missing main's entry")
	}
}

func TestSummaryEdgesFig1(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	sums := ComputeSummaries(g)
	// At each call to p there must be summary edges a→g1-out, b→g2-out,
	// b→g3-out (g3 = g2 = b).
	for _, site := range g.SiteCalls("p") {
		type sk struct{ from, to string }
		have := map[sk]bool{}
		for _, ao := range site.ActualOuts {
			for _, ai := range sums.Into(ao) {
				have[sk{pos(g, ai), g.Vertices[ao].Var}] = true
			}
		}
		for _, want := range []sk{{"0", "g1"}, {"1", "g2"}, {"1", "g3"}} {
			if !have[want] {
				t.Errorf("site %d missing summary %v; have %v", site.ID, want, have)
			}
		}
		if have[sk{"0", "g2"}] || have[sk{"1", "g1"}] {
			t.Errorf("site %d has spurious summary edges: %v", site.ID, have)
		}
	}
}

func pos(g *sdg.Graph, v sdg.VertexID) string {
	return map[int]string{0: "0", 1: "1"}[g.Vertices[v].Param]
}

func TestSummaryEdgesRecursive(t *testing.T) {
	// add is used transitively by tally through two levels; summary edges
	// must cross the recursion.
	src := `
int g;
int add(int a, int b) { return a + b; }
int wrap(int x) { return add(x, 1); }
int rec(int n) {
  if (n > 0) { return rec(n - 1) + wrap(n); }
  return 0;
}
int main() {
  g = rec(5);
  printf("%d", g);
  return 0;
}
`
	g := sdg.MustBuild(lang.MustParse(src))
	sums := ComputeSummaries(g)
	// rec's call-site on itself must have a summary from actual-in n-1 to
	// the return actual-out.
	for _, site := range g.SiteCalls("rec") {
		found := false
		for _, ao := range site.ActualOuts {
			if g.Vertices[ao].IsReturn && len(sums.Into(ao)) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("site %d: no summary to return actual-out", site.ID)
		}
	}
}

func TestBackwardContextSensitivity(t *testing.T) {
	// Classic HRB example: context-insensitive slicing would drag x=1 into
	// the slice of y's printf via the id procedure; the two-phase algorithm
	// must not.
	src := `
int id(int a) { return a; }
int main() {
  int x; int y;
  x = id(1);
  y = id(2);
  printf("%d", y);
  return 0;
}
`
	g := sdg.MustBuild(lang.MustParse(src))
	res := Backward(g, ComputeSummaries(g), printfCriterion(g))
	ml := labelsIn(g, res, "main")
	if ml["actual-in:1"] {
		t.Errorf("context-insensitive leakage: literal 1 in slice: %v", ml)
	}
	if !ml["actual-in:2"] {
		t.Errorf("slice missing literal 2: %v", ml)
	}
}

func TestWeiserCoarserThanHRB(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	crit := printfCriterion(g)
	hrb := Backward(g, ComputeSummaries(g), crit)
	w := Weiser(g, crit)
	for v := range hrb {
		if !w[v] {
			t.Errorf("Weiser slice missing HRB element %s", g.VertexString(v))
		}
	}
	// Weiser must include the mismatched first actuals (atomic call sites).
	count := 0
	for _, site := range g.SiteCalls("p") {
		for _, ai := range site.ActualIns {
			if w[ai] && !hrb[ai] {
				count++
			}
		}
	}
	if count == 0 {
		t.Error("Weiser added no extra actuals; expected atomic call-site expansion")
	}
}

func TestBackwardMonotoneAndClosed(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	sums := ComputeSummaries(g)
	crit := printfCriterion(g)
	s1 := Backward(g, sums, crit)
	// Monotone: a smaller criterion yields a subset.
	small := Backward(g, sums, crit[:1])
	for v := range small {
		if !s1[v] {
			t.Errorf("monotonicity violated at %s", g.VertexString(v))
		}
	}
	// Closed under descend-only traversal: everything reachable backward
	// from the slice via control/flow/summary/param-out is in the slice.
	for v := range s1 {
		for _, e := range g.In(v) {
			switch e.Kind {
			case sdg.EdgeControl, sdg.EdgeFlow, sdg.EdgeParamOut:
				if !s1[e.From] {
					t.Errorf("phase-2 closure violated: %s -> %s", g.VertexString(e.From), g.VertexString(v))
				}
			}
		}
		for _, ai := range sums.Into(v) {
			if !s1[ai] {
				t.Errorf("phase-2 closure violated: summary %s -> %s", g.VertexString(ai), g.VertexString(v))
			}
		}
	}
}
