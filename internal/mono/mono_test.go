package mono

import (
	"reflect"
	"strings"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/slice"
)

const fig14Src = `
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

func build(t *testing.T) (*lang.Program, *sdg.Graph, []sdg.VertexID) {
	t.Helper()
	prog := lang.MustParse(fig14Src)
	g := sdg.MustBuild(prog)
	return prog, g, core.PrintfCriterion(g, "main")
}

// TestBinkleyFig14 reproduces the paper's Fig. 14(c): the monovariant slice
// keeps p's two-parameter signature, adds back the missing first actuals,
// and re-includes g2 = 100 (needed to initialize the added-back actual).
func TestBinkleyFig14(t *testing.T) {
	_, g, crit := build(t)
	res := Binkley(g, slice.ComputeSummaries(g), crit)

	if res.Rounds < 2 {
		t.Errorf("rounds = %d; fig14 has mismatches, so at least one repair round is expected", res.Rounds)
	}
	if len(res.Extras) == 0 {
		t.Fatal("no extras; Binkley's algorithm must add elements outside the closure slice")
	}
	// g2 = 100 is an extra: not in the closure slice, added back.
	foundInit := false
	for v := range res.Extras {
		if g.Label(v) == "g2 = 100" {
			foundInit = true
		}
	}
	if !foundInit {
		t.Error("g2 = 100 must be added back by mismatch repair (paper Fig. 14(c) line 13)")
	}
	// Closure ⊆ Slice.
	for v := range res.Closure {
		if !res.Slice[v] {
			t.Errorf("closure element %s missing from executable slice (completeness)", g.VertexString(v))
		}
	}
	// No remaining mismatches.
	for _, site := range g.Sites {
		if site.Lib || !res.Slice[site.CallVertex] {
			continue
		}
		callee := g.Procs[g.ProcByName[site.Callee]]
		for _, fi := range callee.FormalIns {
			if !res.Slice[fi] {
				continue
			}
			ai, ok := actualFor(g, site, fi)
			if ok && !res.Slice[ai] {
				t.Errorf("unrepaired mismatch at site %d for %s", site.ID, g.VertexString(fi))
			}
		}
	}
}

func TestBinkleyEmitAndRun(t *testing.T) {
	prog, g, crit := build(t)
	res := Binkley(g, slice.ComputeSummaries(g), crit)
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	text := lang.Print(out)
	// Monovariant: exactly one p, with both parameters.
	if !strings.Contains(text, "void p(int a, int b)") {
		t.Errorf("p must keep its full signature:\n%s", text)
	}
	if strings.Contains(text, "p_1") || strings.Contains(text, "p_2") {
		t.Errorf("monovariant slice must not create variants:\n%s", text)
	}
	if !strings.Contains(text, "g2 = 100") {
		t.Errorf("g2 = 100 must be present:\n%s", text)
	}
	if strings.Contains(text, "g3") {
		t.Errorf("g3 stays sliced away:\n%s", text)
	}
	r1, err := interp.Run(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatalf("mono slice fails to run: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}

func TestWeiserCoarserThanBinkley(t *testing.T) {
	_, g, crit := build(t)
	b := Binkley(g, slice.ComputeSummaries(g), crit)
	_, g2, crit2 := build(t)
	w := Weiser(g2, crit2)
	// Weiser is never smaller than Binkley (paper §5) — compare sizes since
	// the two graphs are built identically.
	if len(w.Slice) < len(b.Slice) {
		t.Errorf("Weiser slice (%d) smaller than Binkley (%d)", len(w.Slice), len(b.Slice))
	}
}

func TestWeiserEmitAndRun(t *testing.T) {
	prog, g, crit := build(t)
	res := Weiser(g, crit)
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	r1, _ := interp.Run(prog, interp.Options{})
	r2, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatalf("weiser slice fails: %v\n%s", err, lang.Print(out))
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}

// TestBinkleyRecursive checks mismatch repair across recursion.
func TestBinkleyRecursive(t *testing.T) {
	src := `
int g1; int g2;
void s(int a, int b) { g1 = b; g2 = a; }
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
	prog := lang.MustParse(src)
	g := sdg.MustBuild(prog)
	res := Binkley(g, slice.ComputeSummaries(g), core.PrintfCriterion(g, "main"))
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	r1, _ := interp.Run(prog, interp.Options{})
	r2, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, lang.Print(out))
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}
