package unroll

import (
	"fmt"
	"testing"

	"specslice/internal/core"
	"specslice/internal/fsa"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// keyToWord converts an unrolled configuration key to the encoding's word.
func wordFor(enc *core.Encoding, v sdg.VertexID, stack []sdg.SiteID) []fsa.Symbol {
	w := []fsa.Symbol{enc.VertexSym(v)}
	for _, s := range stack {
		w = append(w, enc.SiteSym(s))
	}
	return w
}

// TestGroundTruthFig1 checks soundness, completeness, and minimality of the
// automaton-based algorithm against the explicit finite unrolling of the
// paper's non-recursive Fig. 1.
func TestGroundTruthFig1(t *testing.T) {
	g := sdg.MustBuild(workload.Fig1Program())
	checkGroundTruth(t, g, 10)
}

// TestGroundTruthFig2Bounded: Fig. 2 is recursive; soundness is checked on
// a depth-5 prefix (every bounded-slice configuration must be accepted by
// A1, and the specialization sets must already have converged).
func TestGroundTruthFig2Bounded(t *testing.T) {
	g := sdg.MustBuild(workload.Fig2Program())
	crit := core.PrintfCriterion(g, "main")
	res, err := core.Specialize(g, core.Configs(cfgsOf(crit)))
	if err != nil {
		t.Fatal(err)
	}
	u := Build(g, 5)
	if !u.Truncated {
		t.Fatal("expected truncation on a recursive program")
	}
	var keys []Key
	for _, v := range crit {
		keys = append(keys, MakeKey(v, nil))
	}
	sl := u.BackwardSlice(keys)
	// Soundness of A1 w.r.t. the prefix: every explicitly sliced
	// configuration is accepted.
	enc := res.Enc
	for k := range sl {
		v, stack := parseKey(k)
		if !res.A1.Accepts(wordFor(enc, v, stack)) {
			t.Errorf("A1 rejects unrolled-slice configuration %s", k)
		}
	}
	// Variants near the truncation boundary are cut short, so compare only
	// interior variants (stack depth ≤ bound − 3): each interior
	// element set must appear among the algorithm's specializations.
	got := gotSpecializations(res)
	for _, v := range u.Variants(sl) {
		if len(v.Stack) > u.MaxDepth-3 {
			continue
		}
		name := g.Procs[v.Proc].Name
		if !got[name][v.ElemsKey()] {
			t.Errorf("interior variant of %s at depth %d has element set %q missing from R",
				name, len(v.Stack), v.ElemsKey())
		}
	}
	// The paper's headline counts for Fig. 2.
	if len(got["r"]) != 2 || len(got["s"]) != 2 {
		t.Errorf("specializations: r=%d s=%d, want 2 and 2", len(got["r"]), len(got["s"]))
	}
}

func gotSpecializations(res *core.Result) map[string]map[string]bool {
	got := map[string]map[string]bool{}
	for _, pv := range res.Variants() {
		name := pv.Orig.Name
		var vs []int
		for _, v := range pv.Vertices {
			vs = append(vs, int(v))
		}
		sortInts(vs)
		key := ""
		for _, v := range vs {
			key += fmt.Sprintf("%d,", v)
		}
		if got[name] == nil {
			got[name] = map[string]bool{}
		}
		got[name][key] = true
	}
	return got
}

func cfgsOf(vs []sdg.VertexID) []core.Config {
	var out []core.Config
	for _, v := range vs {
		out = append(out, core.Config{Vertex: v})
	}
	return out
}

func parseKey(k Key) (sdg.VertexID, []sdg.SiteID) {
	var parts []int
	cur := 0
	neg := false
	flush := func() {
		if neg {
			cur = -cur
		}
		parts = append(parts, cur)
		cur = 0
		neg = false
	}
	for i := 0; i < len(k); i++ {
		switch c := k[i]; {
		case c == '|':
			flush()
		case c == '-':
			neg = true
		default:
			cur = cur*10 + int(c-'0')
		}
	}
	flush()
	v := sdg.VertexID(parts[0])
	var stack []sdg.SiteID
	for _, p := range parts[1:] {
		stack = append(stack, sdg.SiteID(p))
	}
	return v, stack
}

// checkGroundTruth runs the full three-way comparison on a non-recursive
// program: exact configuration-set equality (soundness + completeness) and
// exact Specializations equality (minimality).
func checkGroundTruth(t *testing.T, g *sdg.Graph, depth int) {
	t.Helper()
	crit := core.PrintfCriterion(g, "main")
	if len(crit) == 0 {
		t.Fatal("no criterion")
	}
	res, err := core.Specialize(g, core.Configs(cfgsOf(crit)))
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	u := Build(g, depth)
	if u.Truncated {
		t.Fatalf("program is recursive; use the bounded check")
	}
	var keys []Key
	for _, v := range crit {
		keys = append(keys, MakeKey(v, nil))
	}
	sl := u.BackwardSlice(keys)

	// Completeness+soundness: configuration sets coincide.
	enc := res.Enc
	for k := range sl {
		v, stack := parseKey(k)
		if !res.A1.Accepts(wordFor(enc, v, stack)) {
			t.Errorf("A1 rejects ground-truth configuration %s (incomplete)", k)
		}
	}
	// All A1 words of bounded length must be ground-truth configs.
	for _, w := range res.A1.EnumerateWords(depth+1, 100000) {
		v := enc.SymVertex(w[0])
		var stack []sdg.SiteID
		for _, s := range w[1:] {
			stack = append(stack, enc.SymSite(s))
		}
		if !sl[MakeKey(v, stack)] {
			t.Errorf("A1 accepts %v not in the ground-truth slice (unsound)", w)
		}
	}
	compareSpecializations(t, u.Specializations(sl), res)
}

// compareSpecializations checks Defn. 2.10 minimality: the algorithm's
// variants per procedure equal the ground truth's distinct element sets.
func compareSpecializations(t *testing.T, want map[string]map[string][]sdg.VertexID, res *core.Result) {
	t.Helper()
	got := map[string]map[string]bool{}
	for i, pv := range res.Variants() {
		name := pv.Orig.Name
		var vs []int
		for _, v := range pv.Vertices {
			vs = append(vs, int(v))
		}
		sortInts(vs)
		key := ""
		for _, v := range vs {
			key += fmt.Sprintf("%d,", v)
		}
		if got[name] == nil {
			got[name] = map[string]bool{}
		}
		if got[name][key] {
			t.Errorf("variant %d duplicates an element set of %s", i, name)
		}
		got[name][key] = true
	}
	for name, sets := range want {
		if len(got[name]) != len(sets) {
			t.Errorf("%s: algorithm created %d specializations, ground truth has %d",
				name, len(got[name]), len(sets))
			continue
		}
		for key := range sets {
			if !got[name][key] {
				t.Errorf("%s: ground-truth specialization %q missing from R", name, key)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("R contains specializations of %s absent from the ground truth", name)
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestGroundTruthGeneratedNonRecursive runs the exact comparison on the
// non-recursive generated suites (space and the Siemens-like ones are
// DAG-structured).
func TestGroundTruthGeneratedNonRecursive(t *testing.T) {
	for _, cfg := range workload.SmallBenchmarks() {
		if cfg.Recursive {
			continue
		}
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			g := sdg.MustBuild(workload.Generate(cfg))
			checkGroundTruth(t, g, 30)
		})
	}
}

// TestGroundTruthFlawedMethodExample uses the §1 candidate-algorithm
// counterexample (z = 3) — the case ad hoc algorithms get wrong.
func TestGroundTruthFlawedMethodExample(t *testing.T) {
	src := `
int g1; int g2;

void p(int a, int b) {
  g1 = a;
  int z = 3;
  g2 = b + z;
}

int main() {
  p(11, 4);
  p(g2, 2);
  printf("%d", g1);
  return 0;
}
`
	g := sdg.MustBuild(lang.MustParse(src))
	checkGroundTruth(t, g, 10)
}
