package core

import (
	"sort"
	"testing"

	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/slice"
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

const fig2Src = `
int g1; int g2;

void s(int a, int b) {
  g1 = b;
  g2 = a;
}

void r(int k) {
  if (k > 0) {
    s(g1, g2);
    r(k - 1);
    s(g1, g2);
  }
}

int main() {
  g1 = 1;
  g2 = 2;
  r(3);
  printf("%d\n", g1);
  return 0;
}
`

func specializeSrc(t *testing.T, src string) *Result {
	t.Helper()
	g := sdg.MustBuild(lang.MustParse(src))
	res, err := Specialize(g, Configs(configsFor(g, PrintfCriterion(g, "main"))))
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	return res
}

// configsFor wraps main-level vertices as empty-stack configurations.
func configsFor(g *sdg.Graph, vs []sdg.VertexID) []Config {
	var out []Config
	for _, v := range vs {
		out = append(out, Config{Vertex: v})
	}
	return out
}

// TestFig1TwoSpecializations reproduces the paper's headline example: p is
// specialized into p_1 (one parameter, b) and p_2 (two parameters).
func TestFig1TwoSpecializations(t *testing.T) {
	res := specializeSrc(t, fig1Src).BuildR()
	if got := len(res.VariantsOf["p"]); got != 2 {
		t.Fatalf("variants of p = %d, want 2", got)
	}
	if got := len(res.VariantsOf["main"]); got != 1 {
		t.Fatalf("variants of main = %d, want 1", got)
	}

	// Sizes: p_1 = {entry, b, g2=b, g2-out} (4 vertices);
	// p_2 = {entry, a, b, g1=a, g2=b, g1-out, g2-out} (7 vertices).
	var sizes []int
	for _, idx := range res.VariantsOf["p"] {
		sizes = append(sizes, len(res.R.Procs[idx].Vertices))
	}
	sort.Ints(sizes)
	if sizes[0] != 4 || sizes[1] != 7 {
		t.Errorf("p variant sizes = %v, want [4 7]", sizes)
	}

	// Formal parameter patterns: p_1 keeps only b (param 1), p_2 keeps both.
	var paramPatterns [][]int
	for _, idx := range res.VariantsOf["p"] {
		var ps []int
		for _, fi := range res.R.Procs[idx].FormalIns {
			ps = append(ps, res.R.Vertices[fi].Param)
		}
		sort.Ints(ps)
		paramPatterns = append(paramPatterns, ps)
	}
	sort.Slice(paramPatterns, func(i, j int) bool { return len(paramPatterns[i]) < len(paramPatterns[j]) })
	if len(paramPatterns[0]) != 1 || paramPatterns[0][0] != 1 {
		t.Errorf("small variant params = %v, want [1] (just b)", paramPatterns[0])
	}
	if len(paramPatterns[1]) != 2 {
		t.Errorf("large variant params = %v, want [0 1]", paramPatterns[1])
	}

	// Call pattern in main: two calls to the 1-param variant, one to the
	// 2-param variant (paper Fig. 1(b)).
	mainIdx := res.VariantsOf["main"][0]
	callsTo := map[string]int{}
	for _, sid := range res.R.Procs[mainIdx].Sites {
		s := res.R.Sites[sid]
		if !s.Lib {
			callsTo[s.Callee]++
		}
	}
	var counts []int
	for _, c := range callsTo {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Errorf("call distribution = %v, want one callee called twice and one once", callsTo)
	}

	if err := CheckNoMismatches(res.R); err != nil {
		t.Errorf("parameter mismatch in R (violates Cor. 3.19): %v", err)
	}
}

// TestFig2MutualRecursion reproduces the paper's recursive example: s splits
// into two 1-parameter variants, r splits into two variants that become
// mutually recursive.
func TestFig2MutualRecursion(t *testing.T) {
	res := specializeSrc(t, fig2Src).BuildR()
	if got := len(res.VariantsOf["s"]); got != 2 {
		t.Fatalf("variants of s = %d, want 2", got)
	}
	if got := len(res.VariantsOf["r"]); got != 2 {
		t.Fatalf("variants of r = %d, want 2", got)
	}
	// Each s variant keeps exactly one parameter.
	for _, idx := range res.VariantsOf["s"] {
		params := 0
		for _, fi := range res.R.Procs[idx].FormalIns {
			if res.R.Vertices[fi].Param != sdg.NoParam {
				params++
			}
		}
		if params != 1 {
			t.Errorf("s variant %s has %d params, want 1", res.R.Procs[idx].Name, params)
		}
	}
	// Mutual recursion: each r variant's recursive site calls the *other* r
	// variant.
	rIdx := res.VariantsOf["r"]
	targets := map[int]int{} // r variant -> callee variant at its r-site
	for _, idx := range rIdx {
		for _, sid := range res.R.Procs[idx].Sites {
			s := res.R.Sites[sid]
			if s.Lib {
				continue
			}
			calleeIdx := res.R.ProcByName[s.Callee]
			if res.R.Procs[calleeIdx].Fn.Name == "r" {
				targets[idx] = calleeIdx
			}
		}
	}
	if len(targets) != 2 {
		t.Fatalf("recursive call targets = %v, want 2", targets)
	}
	for from, to := range targets {
		if from == to {
			t.Errorf("r variant %s calls itself; want mutual recursion", res.R.Procs[from].Name)
		}
		if back, ok := targets[to]; !ok || back != from {
			t.Errorf("recursion is not mutual: %v", targets)
		}
	}
	if err := CheckNoMismatches(res.R); err != nil {
		t.Errorf("parameter mismatch in R: %v", err)
	}
}

// TestElemsMatchesHRBClosure cross-validates the PDS stack-configuration
// slice against the independent HRB two-phase implementation: projecting
// the configurations onto PDG vertices must give exactly the closure slice.
func TestElemsMatchesHRBClosure(t *testing.T) {
	for _, src := range []string{fig1Src, fig2Src} {
		g := sdg.MustBuild(lang.MustParse(src))
		crit := PrintfCriterion(g, "main")

		_, elems, err := ClosureSlice(g, SDGVertices(crit))
		if err != nil {
			t.Fatalf("ClosureSlice: %v", err)
		}

		slice.ComputeSummaryEdges(g)
		hrb := slice.Backward(g, crit)

		for v := range hrb {
			if !elems[v] {
				t.Errorf("HRB has %s but PDS slice does not", g.VertexString(v))
			}
		}
		for v := range elems {
			if !hrb[v] {
				t.Errorf("PDS slice has %s but HRB does not", g.VertexString(v))
			}
		}
	}
}

// TestA6PropertiesFig1 checks the automaton-side claims of §3 on Fig. 1:
// A6 is reverse-deterministic, has one initial and one final state, and
// accepts the same language as A1.
func TestA6PropertiesFig1(t *testing.T) {
	res := specializeSrc(t, fig1Src)
	if !res.A6.IsReverseDeterministic() {
		t.Error("A6 is not reverse-deterministic")
	}
	if len(res.A6.Starts()) != 1 || len(res.A6.Finals()) != 1 {
		t.Errorf("A6 has %d starts and %d finals, want 1 and 1", len(res.A6.Starts()), len(res.A6.Finals()))
	}
	// The five automaton operations must not change the language.
	for _, w := range res.A1.EnumerateWords(6, 500) {
		if !res.A6.Accepts(w) {
			t.Errorf("A6 rejects %v accepted by A1", w)
		}
	}
	for _, w := range res.A6.EnumerateWords(6, 500) {
		if !res.A1.Accepts(w) {
			t.Errorf("A1 rejects %v accepted by A6", w)
		}
	}
}

// TestReslicingCheck runs the paper's §8.3 self-validation on both figures.
func TestReslicingCheck(t *testing.T) {
	for _, src := range []string{fig1Src, fig2Src} {
		g := sdg.MustBuild(lang.MustParse(src))
		spec := Configs(configsFor(g, PrintfCriterion(g, "main")))
		res, err := Specialize(g, spec)
		if err != nil {
			t.Fatalf("Specialize: %v", err)
		}
		if err := res.ReslicingCheck(spec); err != nil {
			t.Errorf("reslicing check: %v", err)
		}
	}
}

// TestCriterionWithStack slices Fig. 2 from a configuration inside the
// recursion (r's s-call in a specific calling context).
func TestCriterionWithStack(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig2Src))
	// Criterion: the g1-out actual-out of the first s call, inside r called
	// from main.
	var rSiteFromMain, sSiteInR sdg.SiteID = -1, -1
	for _, s := range g.Sites {
		if s.Lib {
			continue
		}
		if s.Callee == "r" && g.Procs[s.CallerProc].Name == "main" {
			rSiteFromMain = s.ID
		}
		if s.Callee == "s" && sSiteInR < 0 {
			sSiteInR = s.ID
		}
	}
	if rSiteFromMain < 0 || sSiteInR < 0 {
		t.Fatal("sites not found")
	}
	target := g.Sites[sSiteInR].ActualOuts[0]
	res, err := Specialize(g, Configs([]Config{{Vertex: target, Stack: []sdg.SiteID{rSiteFromMain}}}))
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := CheckNoMismatches(res.BuildR().R); err != nil {
		t.Errorf("mismatch: %v", err)
	}
	if n := res.VariantCounts()["main"]; n != 1 {
		t.Errorf("main variants = %d, want 1", n)
	}
}

// TestAllContextsCriterion uses the Vertices criterion (all calling
// contexts, as in the paper's wc/go experiments).
func TestAllContextsCriterion(t *testing.T) {
	src := `
int g;
void leaf(int x) { printf("%d", x + g); }
void mid(int a) { leaf(a * 2); }
int main() {
  g = 5;
  mid(1);
  leaf(3);
  return 0;
}
`
	g := sdg.MustBuild(lang.MustParse(src))
	res, err := Specialize(g, Vertices(PrintfCriterion(g, "")))
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := CheckNoMismatches(res.BuildR().R); err != nil {
		t.Errorf("mismatch: %v", err)
	}
	if res.VariantCounts()["leaf"] < 1 {
		t.Error("leaf missing from slice")
	}
}

// TestVariantVertexSetsAreDistinct: Defn. 2.10(3) — two variants of the
// same procedure must have different Elems sets (minimality).
func TestVariantVertexSetsAreDistinct(t *testing.T) {
	for _, src := range []string{fig1Src, fig2Src} {
		res := specializeSrc(t, src).BuildR()
		for name, idxs := range res.VariantsOf {
			seen := map[string]bool{}
			for _, idx := range idxs {
				var key string
				var vs []int
				for _, rv := range res.R.Procs[idx].Vertices {
					vs = append(vs, int(res.OriginVertex[rv]))
				}
				sort.Ints(vs)
				for _, v := range vs {
					key += string(rune(v)) + ","
				}
				if seen[key] {
					t.Errorf("%s has two variants with identical element sets (not minimal)", name)
				}
				seen[key] = true
			}
		}
	}
}

func TestDeterminizeShrinks(t *testing.T) {
	// §4.2: for automata arising from Prestar, determinize's output is
	// smaller than its input.
	res := specializeSrc(t, fig1Src)
	if res.StatesAfterDeterminize > res.StatesBeforeDeterminize {
		t.Logf("determinize grew on fig1: %d -> %d (allowed, but unexpected)",
			res.StatesBeforeDeterminize, res.StatesAfterDeterminize)
	}
}

func TestEmptySliceError(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	if _, err := Specialize(g, Configs(nil)); err == nil {
		t.Error("want error for empty criterion")
	}
}
