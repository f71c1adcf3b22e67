package funcptr

import (
	"reflect"
	"strings"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// fig15Src is the paper's Fig. 15 example.
const fig15Src = `
int f(int a, int b) {
  return a + b;
}

int g(int a, int b) {
  return a;
}

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

func TestAnalyzeFig15(t *testing.T) {
	prog := lang.MustParse(fig15Src)
	pts := Analyze(prog)
	set := pts["main/p"]
	if !set["f"] || !set["g"] || len(set) != 2 {
		t.Errorf("pts(main/p) = %v, want {f, g}", set)
	}
}

func TestTransformFig15(t *testing.T) {
	prog := lang.MustParse(fig15Src)
	out, created, err := Transform(prog)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if created != 1 {
		t.Errorf("dispatch procs = %d, want 1", created)
	}
	text := lang.Print(out)
	if !strings.Contains(text, "__dispatch_1(fnptr __p, int __a0, int __a1)") {
		t.Errorf("dispatch proc missing:\n%s", text)
	}
	// No indirect calls remain.
	for _, fn := range out.Funcs {
		for _, s := range fn.Stmts() {
			if c, ok := s.(*lang.CallStmt); ok && c.Indirect {
				t.Errorf("indirect call survives at %s", c.Pos)
			}
		}
	}
	// Behavior preserved on both paths.
	for _, in := range []int64{1, -1} {
		r1, err := interp.Run(prog, interp.Options{Input: []int64{in}})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := interp.Run(out, interp.Options{Input: []int64{in}})
		if err != nil {
			t.Fatalf("transformed program fails: %v", err)
		}
		if !reflect.DeepEqual(r1.Output, r2.Output) {
			t.Errorf("input %d: outputs differ: %v vs %v", in, r1.Output, r2.Output)
		}
	}
	// The transformed program builds an SDG (no indirect calls).
	if _, err := sdg.Build(out); err != nil {
		t.Fatalf("SDG build: %v", err)
	}
}

// TestFig15EndToEndSpecialization reproduces §6.2: slicing the transformed
// program specializes the dispatch procedure; g's second parameter
// disappears in g's used variant.
func TestFig15EndToEndSpecialization(t *testing.T) {
	prog := lang.MustParse(fig15Src)
	tr, _, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := sdg.MustBuild(tr)
	crit := core.PrintfCriterion(g, "main")
	var cfgs []core.Config
	for _, v := range crit {
		cfgs = append(cfgs, core.Config{Vertex: v})
	}
	res, err := core.Specialize(g, core.Configs(cfgs))
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := core.CheckNoMismatches(res.BuildR().R); err != nil {
		t.Errorf("mismatch: %v", err)
	}
	out, err := emit.Program(g, res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	text := lang.Print(out)
	// The dispatch procedure must be in the slice (the call is indirect).
	if !strings.Contains(text, "__dispatch_1") {
		t.Errorf("dispatch proc sliced away:\n%s", text)
	}
	// Behavior preserved.
	for _, in := range []int64{1, -1} {
		r1, _ := interp.Run(prog, interp.Options{Input: []int64{in}})
		r2, err := interp.Run(out, interp.Options{Input: []int64{in}})
		if err != nil {
			t.Fatalf("sliced program fails: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(r1.Output, r2.Output) {
			t.Errorf("input %d: outputs differ: %v vs %v\n%s", in, r1.Output, r2.Output, text)
		}
	}
}

func TestTransformCopyPropagation(t *testing.T) {
	src := `
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
	prog := lang.MustParse(src)
	pts := Analyze(prog)
	if !pts["gp"]["f"] || !pts["gp"]["h"] {
		t.Errorf("pts(gp) = %v, want {f, h} (through the set() copy chain)", pts["gp"])
	}
	out, created, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	if created != 1 {
		t.Errorf("created = %d, want 1", created)
	}
	r1, _ := interp.Run(prog, interp.Options{})
	r2, err := interp.Run(out, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}

func TestTransformErrors(t *testing.T) {
	// Empty points-to set.
	src := `
int main() {
  fnptr p;
  p(1);
  return 0;
}
`
	if _, _, err := Transform(lang.MustParse(src)); err == nil || !strings.Contains(err.Error(), "points-to") {
		t.Errorf("want empty-points-to error, got %v", err)
	}
	// Arity mismatch between candidates and call.
	src2 := `
int f(int a, int b) { return a; }
int main() {
  fnptr p;
  int x;
  p = f;
  x = p(1);
  printf("%d", x);
  return 0;
}
`
	if _, _, err := Transform(lang.MustParse(src2)); err == nil || !strings.Contains(err.Error(), "args") {
		t.Errorf("want arity error, got %v", err)
	}
}

func TestTransformIdempotentOnDirectPrograms(t *testing.T) {
	src := `
int f(int a) { return a; }
int main() {
  int x;
  x = f(1);
  printf("%d", x);
  return 0;
}
`
	prog := lang.MustParse(src)
	out, created, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	if created != 0 {
		t.Errorf("created = %d dispatch procs on a direct-call program", created)
	}
	if lang.Print(out) != lang.Print(prog) {
		t.Error("transform changed a program without indirect calls")
	}
}
