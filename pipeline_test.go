package specslice_test

// End-to-end pipeline stress tests: for a corpus of adversarial programs
// and for generated suites, check that
//
//   - the specialization slice emits, re-parses, re-analyzes, and is free
//     of parameter mismatches (Cor. 3.19);
//   - running the emitted slice reproduces the original program's values
//     at the slicing criterion (Weiser's correctness condition), observed
//     statement-by-statement through origin IDs;
//   - the slice never does more work than the original;
//   - the monovariant baseline passes the same behavioral check;
//   - the reslicing self-check (§8.3) passes;
//   - projecting the stack-configuration slice equals the HRB closure
//     slice (two independent implementations).

import (
	"reflect"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/mono"
	"specslice/internal/sdg"
	"specslice/internal/slice"
	"specslice/internal/workload"
)

// corpus exercises the slicer's hard cases. Programs must terminate; scanf
// statements read keyed input so slices see the same values.
var corpus = map[string]string{
	"fig1": workload.Fig1Source,
	"fig2": workload.Fig2Source,

	"mutual-recursion": `
int g;
int even(int n) {
  if (n == 0) { return 1; }
  return odd(n - 1);
}
int odd(int n) {
  if (n == 0) { return 0; }
  return even(n - 1);
}
int main() {
  g = even(7);
  printf("%d", g);
  return 0;
}`,

	"loops-with-jumps": `
int total; int hits;
int main() {
  int i = 0;
  while (i < 20) {
    i = i + 1;
    if (i % 3 == 0) { continue; }
    if (i > 15) { break; }
    total = total + i;
    hits = hits + 1;
  }
  printf("%d", total);
  printf("%d", hits);
  return 0;
}`,

	"early-returns": `
int g;
int clamp(int x) {
  if (x < 0) { return 0; }
  if (x > 10) { return 10; }
  return x;
}
int main() {
  g = clamp(-5) + clamp(7) * 100 + clamp(99) * 10000;
  printf("%d", g);
  return 0;
}`,

	"kill-chains": `
int a; int b; int c;
void setAll(int x) { a = x; b = x + 1; c = x + 2; }
void setB(int x) { b = x; }
int main() {
  setAll(1);
  setB(50);
  setAll(2);
  printf("%d", b);
  printf("%d", a + c);
  return 0;
}`,

	"scanf-driven": `
int g;
int main() {
  int n;
  int acc = 0;
  scanf("%d", &n);
  while (n > 0) {
    acc = acc + n;
    n = n - 1;
  }
  g = acc;
  printf("%d", g);
  return 0;
}`,

	"nested-calls": `
int g;
int inc(int x) { return x + 1; }
int twice(int x) { return inc(inc(x)); }
int main() {
  g = twice(twice(inc(1)));
  printf("%d", g);
  return 0;
}`,

	"dead-branches": `
int g; int h;
void p(int a, int b) {
  if (a > 0) { g = a; }
  if (b > 0) { h = b; }
}
int main() {
  p(1, 2);
  p(3, 4);
  printf("%d", g);
  return 0;
}`,

	"deep-chain": `
int g;
int l4(int x) { return x * 2; }
int l3(int x) { return l4(x) + 1; }
int l2(int x) { return l3(x) + 1; }
int l1(int x) { return l2(x) + 1; }
int main() {
  g = l1(5);
  printf("%d", g);
  return 0;
}`,

	"recursion-depth": `
int g1; int g2;
void swapper(int k) {
  int t;
  if (k > 0) {
    t = g1;
    g1 = g2;
    g2 = t;
    swapper(k - 1);
  }
}
int main() {
  g1 = 10;
  g2 = 20;
  swapper(5);
  printf("%d %d", g1, g2);
  return 0;
}`,
}

// keyedInput builds per-scanf input streams so slices read position-stable
// values.
func keyedInput(prog *lang.Program) map[lang.NodeID][]int64 {
	keyed := map[lang.NodeID][]int64{}
	n := int64(3)
	for _, fn := range prog.Funcs {
		for _, s := range fn.Stmts() {
			if _, ok := s.(*lang.ScanfStmt); ok {
				keyed[s.Base().OriginID()] = []int64{n, n + 1, n + 2, n + 3, n + 4, n + 5, n + 6, n + 7}
				n += 3
			}
		}
	}
	return keyed
}

// criterionValues runs prog recording the values printed by the printf with
// the given origin ID.
func criterionValues(t *testing.T, prog *lang.Program, origin lang.NodeID, keyed map[lang.NodeID][]int64) [][]int64 {
	t.Helper()
	res, err := interp.Run(prog, interp.Options{
		KeyedInput:          keyed,
		AllowInputExhausted: true,
		Record:              map[lang.NodeID]bool{origin: true},
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, lang.Print(prog))
	}
	return res.Values[origin]
}

func TestPipelineCorpus(t *testing.T) {
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			prog := lang.MustParse(src)
			keyed := keyedInput(prog)
			g := sdg.MustBuild(prog)
			sums := slice.ComputeSummaries(g)

			for siteIdx, site := range g.Sites {
				if !site.Lib || site.Callee != "printf" {
					continue
				}
				origin := site.Stmt.Base().OriginID()
				want := criterionValues(t, prog, origin, keyed)
				crit := append([]sdg.VertexID(nil), site.ActualIns...)

				// Polyvariant.
				var cfgs core.Configs
				for _, v := range crit {
					cfgs = append(cfgs, core.Config{Vertex: v})
				}
				res, err := core.Specialize(g, cfgs)
				if err != nil {
					t.Fatalf("site %d: Specialize: %v", siteIdx, err)
				}
				if err := core.CheckNoMismatches(res.BuildR().R); err != nil {
					t.Errorf("site %d: mismatch: %v", siteIdx, err)
				}
				if err := res.ReslicingCheck(cfgs); err != nil {
					t.Errorf("site %d: reslicing: %v", siteIdx, err)
				}
				out, err := emit.Program(g, res.Variants())
				if err != nil {
					t.Fatalf("site %d: emit: %v", siteIdx, err)
				}
				if _, err := lang.Parse(lang.Print(out)); err != nil {
					t.Fatalf("site %d: slice does not reparse: %v\n%s", siteIdx, err, lang.Print(out))
				}
				got := criterionValues(t, out, origin, keyed)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("site %d: poly slice values %v, want %v\n%s", siteIdx, got, want, lang.Print(out))
				}

				// Slice does no more work than the original.
				origRun, _ := interp.Run(prog, interp.Options{KeyedInput: keyed, AllowInputExhausted: true})
				sliceRun, err := interp.Run(out, interp.Options{KeyedInput: keyed, AllowInputExhausted: true})
				if err != nil {
					t.Fatalf("site %d: slice run: %v", siteIdx, err)
				}
				if sliceRun.Steps > origRun.Steps {
					t.Errorf("site %d: slice executes %d steps, original %d", siteIdx, sliceRun.Steps, origRun.Steps)
				}

				// Monovariant baseline on the same graph.
				mres := mono.Binkley(g, sums, crit)
				mout, err := emit.Program(g, mres.Variants())
				if err != nil {
					t.Fatalf("site %d: mono emit: %v", siteIdx, err)
				}
				mgot := criterionValues(t, mout, origin, keyed)
				if !reflect.DeepEqual(want, mgot) {
					t.Errorf("site %d: mono slice values %v, want %v", siteIdx, mgot, want)
				}
			}
		})
	}
}

// TestPipelineElemsEqualsHRB cross-validates the two slicer families on the
// whole corpus: Elems(pre*) == HRB closure slice.
func TestPipelineElemsEqualsHRB(t *testing.T) {
	for name, src := range corpus {
		prog := lang.MustParse(src)
		g := sdg.MustBuild(prog)
		crit := core.PrintfCriterion(g, "main")
		if len(crit) == 0 {
			continue
		}
		_, elems, err := core.ClosureSlice(g, core.SDGVertices(crit))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hrb := slice.Backward(g, slice.ComputeSummaries(g), crit)
		if len(elems) != len(hrb) {
			t.Errorf("%s: PDS slice %d elements, HRB %d", name, len(elems), len(hrb))
		}
		for v := range hrb {
			if !elems[v] {
				t.Errorf("%s: HRB element %s missing from PDS slice", name, g.VertexString(v))
			}
		}
	}
}

// TestPipelineGeneratedSuites runs the analysis-only checks on every small
// generated suite (the suites are not interpretable — their recursion is
// unguarded — so behavior is not compared).
func TestPipelineGeneratedSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, cfg := range workload.SmallBenchmarks() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			prog := workload.Generate(cfg)
			g := sdg.MustBuild(prog)
			for i, site := range g.Sites {
				if !site.Lib || site.Callee != "printf" || i%2 == 1 {
					continue
				}
				var cfgs core.Configs
				for _, v := range site.ActualIns {
					cfgs = append(cfgs, core.Config{Vertex: v})
				}
				res, err := core.Specialize(g, cfgs)
				if err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
				if err := core.CheckNoMismatches(res.BuildR().R); err != nil {
					t.Errorf("site %d: %v", i, err)
				}
				if !res.A6.IsReverseDeterministic() {
					t.Errorf("site %d: A6 not MRD", i)
				}
				if _, err := emit.Program(g, res.Variants()); err != nil {
					t.Errorf("site %d: emit: %v", i, err)
				}
			}
		})
	}
}
