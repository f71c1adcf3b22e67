package lang

import (
	"strings"
	"testing"
)

// fuzzSeeds is the corpus the fuzzers start from: the examples' embedded
// programs (examples/quickstart, examples/recursive, examples/funcptr,
// examples/featureremoval all embed one of the first three), plus small
// programs that concentrate tricky syntax — escapes, unary chains, operator
// precedence, fnptr declarations, call normalization.
var fuzzSeeds = []string{
	// examples/quickstart + examples/featureremoval (paper Fig. 1).
	`
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
`,
	// examples/recursive (paper Fig. 2).
	`
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
`,
	// examples/funcptr: indirect calls through fnptr locals.
	`
int f(int a, int b) { return a + b; }
int g(int a, int b) { return a; }
int main() {
  fnptr p;
  int x;
  scanf("%d", &x);
  if (x == 1) { p = f; } else { p = g; }
  x = p(10, 3);
  printf("%d", x);
  return 0;
}
`,
	// Escapes and format strings.
	`int main() { printf("a\tb\n\"q\"\\ 100%d\n", 42); return 0; }`,
	`int main() { printf("\%"); return 0; }`,
	// Operator precedence, unary chains, parenthesization.
	`int main() { int x = -1 * (2 + 3) % 4 - -5; x = !!x || x && x != 0; printf("%d", x); return 0; }`,
	// Calls in expression position (normalization hoists them).
	`int h(int a) { return a; }
int main() { int x = h(h(1) + h(2)) * h(3); printf("%d", x); return 0; }`,
	// Control flow with else-if chains, break/continue.
	`int main() {
  int i = 0;
  while (i < 9) {
    i = i + 1;
    if (i == 2) { continue; } else if (i == 7) { break; } else { i = i + 0; }
  }
  printf("%d", i);
  return 0;
}`,
	// fnptr globals and function references.
	`fnptr gp;
int id(int x) { return x; }
int main() { gp = &id; printf("%d", gp(5)); return 0; }`,
	// Comments and odd whitespace.
	"int main() { /* block */ // line\n\treturn 0; }",
	// Degenerate and invalid-ish inputs (fine as seeds; errors expected).
	``,
	`int`,
	`int main() {`,
	`void main() { return 1; }`,
	`int x; int x; int main() { return 0; }`,
}

// FuzzParse asserts the front end never panics: any byte string either
// parses or returns an error, and a parsed program prints. Parse must
// also agree with the reference front end (diffReference).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffReference(src); d != "" {
			t.Fatalf("Parse diverges from the reference front end on %q:\n%s", src, d)
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if out := Print(prog); out == "" && len(prog.Funcs) > 0 {
			t.Errorf("non-empty program printed empty")
		}
	})
}

// FuzzRoundTrip asserts print/parse is a fixed point: whatever Parse
// accepts, Print must render to source that reparses to a program printing
// identically. (Parse normalizes, so the first print may differ from the
// input — but it must be stable from then on.) The first print must also
// match the reference printer byte for byte, and canonicalizing the parsed
// program must number it as the reparse does (checkCanonical).
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		out := Print(prog)
		if ref := referencePrint(prog); out != ref {
			t.Fatalf("Print diverges from the reference printer:\ninput:\n%s\nprinted:\n%s\nreference:\n%s", src, out, ref)
		}
		prog2, err := Parse(out)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\ninput:\n%s\nprinted:\n%s", err, src, out)
		}
		out2 := Print(prog2)
		if out2 != out {
			t.Fatalf("print/parse round trip diverges:\nfirst:\n%s\nsecond:\n%s", out, out2)
		}
		checkCanonical(t, src)
	})
}

// TestFuzzSeedsRoundTrip runs the round-trip property, with the
// canonical-numbering check, over the seed corpus in a plain test, so the
// property is exercised on every `go test` run even without -fuzz.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	parsed := 0
	for i, src := range fuzzSeeds {
		prog, err := Parse(src)
		if err != nil {
			continue
		}
		parsed++
		out := Print(prog)
		if ref := referencePrint(prog); out != ref {
			t.Errorf("seed %d: Print diverges from the reference printer:\n%s\nvs:\n%s", i, out, ref)
		}
		prog2, err := Parse(out)
		if err != nil {
			t.Errorf("seed %d: printed program does not reparse: %v\n%s", i, err, out)
			continue
		}
		if out2 := Print(prog2); out2 != out {
			t.Errorf("seed %d: round trip diverges:\n%s\nvs:\n%s", i, out, out2)
		}
		checkCanonical(t, src)
	}
	if parsed < 10 {
		t.Errorf("only %d seeds parse; corpus has rotted", parsed)
	}
	// The \% escape is the one non-obvious lexer rule: it expands to a
	// literal doubled percent so renderPrintf does not treat it as %d.
	prog := MustParse(`int main() { printf("\%"); return 0; }`)
	if !strings.Contains(Print(prog), `%%`) {
		t.Errorf("\\%% escape lost: %s", Print(prog))
	}
}
