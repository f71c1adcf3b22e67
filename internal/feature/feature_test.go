package feature

import (
	"strings"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// fig16Src is the paper's Fig. 16 tally program, with the reference
// parameters expressed as globals (MicroC has no reference parameters; the
// dependences flow through the same actual/formal machinery).
const fig16Src = `
int sum; int prod;

int add(int a, int b) {
  return a + b;
}

int mult(int a, int b) {
  int i = 0;
  int ans = 0;
  while (i < a) {
    ans = add(ans, b);
    i = add(i, 1);
  }
  return ans;
}

void tally(int n) {
  int i = 1;
  while (i <= n) {
    sum = add(sum, i);
    prod = mult(prod, i);
    i = add(i, 1);
  }
}

int main() {
  sum = 0;
  prod = 1;
  tally(10);
  printf("%d ", sum);
  printf("%d ", prod);
  return 0;
}
`

// TestFig16FeatureRemoval removes the product computation: the forward
// slice from `prod = 1`. The summation — including procedure add, which the
// product feature also used — must survive and still compute 55.
func TestFig16FeatureRemoval(t *testing.T) {
	prog := lang.MustParse(fig16Src)
	g := sdg.MustBuild(prog)
	crit := ForwardCriterion(g, "main", "prod = 1")
	if len(crit) != 1 {
		t.Fatalf("criterion vertices = %d, want 1", len(crit))
	}
	res, err := Remove(g, crit)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	text := lang.Print(out)

	if strings.Contains(text, "prod = 1") {
		t.Errorf("feature seed survived:\n%s", text)
	}
	// add must survive (needed by sum) — the key multi-procedure property.
	hasAdd := false
	for _, fn := range out.Funcs {
		if strings.HasPrefix(fn.Name, "add") {
			hasAdd = true
		}
	}
	if !hasAdd {
		t.Fatalf("add was removed although the sum needs it:\n%s", text)
	}

	r, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatalf("feature-removed program fails: %v\n%s", err, text)
	}
	// The sum printf must still print 55; the prod printf (not in the
	// forward slice of prod=1? it is — it uses prod) is removed.
	found := false
	for _, o := range r.Output {
		if strings.TrimSpace(o) == "55" {
			found = true
		}
		if strings.TrimSpace(o) == "3628800" {
			t.Errorf("product output survived feature removal: %v", r.Output)
		}
	}
	if !found {
		t.Errorf("sum output missing: %v", r.Output)
	}
}

// TestFeatureRemovalKeepsUnrelatedCode removes a feature that shares no
// code with the rest: equivalent to deleting it.
func TestFeatureRemovalKeepsUnrelatedCode(t *testing.T) {
	src := `
int a; int b;
int main() {
  a = 1;
  b = 2;
  a = a + 1;
  printf("%d", a);
  printf("%d", b);
  return 0;
}
`
	prog := lang.MustParse(src)
	g := sdg.MustBuild(prog)
	res, err := Remove(g, ForwardCriterion(g, "main", "b = 2"))
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	r, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Output) != 1 || r.Output[0] != "2" {
		t.Errorf("output = %v, want [2] (the a-printf only)", r.Output)
	}
}

func TestRemoveEverythingFails(t *testing.T) {
	src := `
int main() {
  printf("%d", 1);
  return 0;
}
`
	g := sdg.MustBuild(lang.MustParse(src))
	// Forward slice from main's entry covers the whole program.
	entry := g.Procs[g.ProcByName["main"]].Entry
	if _, err := Remove(g, []sdg.VertexID{entry}); err == nil {
		t.Error("want error when the feature is the whole program")
	}
}

func TestEmptyCriterion(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig16Src))
	if _, err := Remove(g, nil); err == nil {
		t.Error("want error for empty criterion")
	}
}

// TestFeatureRemovalSpecializesInterfaces: tally loses the product-related
// dependences; the result must still satisfy Cor. 3.19.
func TestFeatureRemovalSpecializesInterfaces(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig16Src))
	res, err := Remove(g, ForwardCriterion(g, "main", "prod = 1"))
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := core.CheckNoMismatches(res.BuildR().R); err != nil {
		t.Errorf("mismatch in feature-removal result: %v", err)
	}
}
