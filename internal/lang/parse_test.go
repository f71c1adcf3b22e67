package lang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// diffReference parses src with Parse and with the reference front end
// and returns "" when they agree: on accepting or rejecting it, on the
// error text, and on the printed text, the next statement ID, and every
// global's, function's and statement's ID, Origin and position. The one
// allowed difference is a program that declares a name spelled like a
// normalization temporary (_t1, _t2, ...): there the reference's
// temporaries may capture the name, and Parse's do not.
func diffReference(src string) string {
	got, err := Parse(src)
	ref, rerr := referenceParse(src)
	if err != nil {
		if rerr == nil {
			return fmt.Sprintf("Parse rejects (%v), the reference accepts", err)
		}
		if err.Error() != rerr.Error() {
			return fmt.Sprintf("error %q, the reference's %q", err, rerr)
		}
		return ""
	}
	if declaresTempName(got) {
		return ""
	}
	if rerr != nil {
		return fmt.Sprintf("Parse accepts, the reference rejects (%v)", rerr)
	}
	if a, b := Print(got), Print(ref); a != b {
		return fmt.Sprintf("printed text differs:\n%s\nreference:\n%s", a, b)
	}
	if got.nextID != ref.nextID {
		return fmt.Sprintf("next ID %d, the reference's %d", got.nextID, ref.nextID)
	}
	for i, g := range got.Globals {
		if g.Pos != ref.Globals[i].Pos {
			return fmt.Sprintf("global %s at %s, the reference's at %s", g.Name, g.Pos, ref.Globals[i].Pos)
		}
	}
	for i, f := range got.Funcs {
		rf := ref.Funcs[i]
		if f.Pos != rf.Pos {
			return fmt.Sprintf("function %s at %s, the reference's at %s", f.Name, f.Pos, rf.Pos)
		}
		gs, rs := f.Stmts(), rf.Stmts()
		for j, s := range gs {
			if a, b := *s.Base(), *rs[j].Base(); a != b {
				return fmt.Sprintf("%s: statement %d is %+v, the reference's %+v", f.Name, j, a, b)
			}
		}
	}
	return ""
}

// declaresTempName reports whether prog declares a global, function,
// parameter or local spelled like a normalization temporary.
func declaresTempName(prog *Program) bool {
	temp := func(name string) bool {
		rest, ok := strings.CutPrefix(name, "_t")
		return ok && rest != "" && strings.Trim(rest, "0123456789") == ""
	}
	for _, g := range prog.Globals {
		if temp(g.Name) {
			return true
		}
	}
	for _, f := range prog.Funcs {
		if temp(f.Name) {
			return true
		}
		for _, pm := range f.Params {
			if temp(pm.Name) {
				return true
			}
		}
		for _, s := range f.Stmts() {
			if d, ok := s.(*DeclStmt); ok && temp(d.Name) {
				return true
			}
		}
	}
	return false
}

// checkCanonical asserts the canonical-numbering contract on src: after
// norm := Canonicalize(p) on p := Parse(src), p deep-equals Parse(norm),
// and norm is Print(p). It returns false when src does not parse.
func checkCanonical(t *testing.T, src string) bool {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		return false
	}
	norm := Canonicalize(p)
	if printed := Print(p); printed != norm {
		t.Fatalf("Canonicalize text differs from Print:\n%s\nPrint:\n%s", norm, printed)
	}
	q, err := Parse(norm)
	if err != nil {
		t.Fatalf("canonical text does not parse: %v\n%s", err, norm)
	}
	// The record Canonicalize leaves must answer as the walks would; the
	// program itself, record aside, must be Parse's.
	rec := p.canon
	p.canon = nil
	for i, f := range p.Funcs {
		if h := ProcHash(f); rec.hashes[i] != h {
			t.Fatalf("Canonicalize recorded hash %x for %s, ProcHash %x:\n%s", rec.hashes[i], f.Name, h, norm)
		}
	}
	if walked := p.HasIndirectCall(); rec.indirect != walked {
		t.Fatalf("Canonicalize recorded indirect=%v, the walk says %v:\n%s", rec.indirect, walked, norm)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("Canonicalize(p) leaves p unlike Parse of its text:\ninput:\n%s\ncanonical:\n%s\n%s", src, norm, firstStmtDiff(p, q))
	}
	return true
}

// firstStmtDiff describes the first statement at which a and b differ in
// identity or position, for failure messages.
func firstStmtDiff(a, b *Program) string {
	if a.nextID != b.nextID {
		return fmt.Sprintf("next ID %d vs %d", a.nextID, b.nextID)
	}
	for i, f := range a.Funcs {
		if i >= len(b.Funcs) {
			break
		}
		as, bs := f.Stmts(), b.Funcs[i].Stmts()
		for j := range min(len(as), len(bs)) {
			if *as[j].Base() != *bs[j].Base() {
				return fmt.Sprintf("%s statement %d: %+v vs %+v", f.Name, j, *as[j].Base(), *bs[j].Base())
			}
		}
	}
	return "the difference is in a node's fields, not in statement identities"
}

// parseErrorCases are inputs the front end rejects, each at a different
// stage: lexing, parsing (with and without a lexical error after the
// syntax error), resolution and normalization.
var parseErrorCases = []string{
	`int main() { printf("unterminated); }`,
	"int main() { @ }",
	"/* unterminated",
	"int main() { return 0; } @",
	"int main( { return 0; } /* open",
	"int main() { x = ; } $",
	`int main() { printf("\q"); }`,
	`int main() { printf("x\`,
	"int main() { int x = 99999999999999999999; return 0; }",
	"int main() { if x { } }",
	"int f() { return 1; } int main() { while (f() > 0) { } return 0; }",
	"int main() { void x; }",
	"fnptr f() { return 0; }",
	"void v; int main() { return 0; }",
	"int main() { else { } }",
	"int main() { x; }",
	"int main() { int x; x = 1 +; return 0; }",
	"int main() { scanf(\"%d\", x); return 0; }",
	"int main() { printf(x); return 0; }",
	"int f(int a, void b) { return a; } int main() { return 0; }",
	"int main() { return 0; } int main() { return 1; }",
}

// TestParseMatchesReference holds Parse to the reference front end on the
// fuzz seeds, the error cases, and each of them cut short at every tenth
// byte.
func TestParseMatchesReference(t *testing.T) {
	for _, src := range append(append([]string(nil), fuzzSeeds...), parseErrorCases...) {
		for cut := len(src); cut >= 0; cut -= 10 {
			if d := diffReference(src[:cut]); d != "" {
				t.Fatalf("input %q:\n%s", src[:cut], d)
			}
		}
	}
}

// TestTempNamesAvoidUserNames: a temporary never takes the name of a
// global, a function, or a parameter or local of its function, and the
// numbering of programs without such names is unchanged.
func TestTempNamesAvoidUserNames(t *testing.T) {
	cases := []struct{ src, want string }{
		{`int _t1; int h(int a) { return a; }
int main() { _t1 = 5; int x = h(h(1)) + _t1; printf("%d", x); return 0; }`, "_t2 = h(1)"},
		{`int h(int _t1) { int _t2; _t2 = g(g(_t1)); return _t2; }
int g(int a) { return a; }
int main() { printf("%d", h(3)); return 0; }`, "_t3 = g(_t1)"},
		{`int _t2() { return 1; } int h(int a) { return a; }
int main() { int x = h(h(1)) + h(2); printf("%d", x); return 0; }`, "_t3 = h(_t1)"},
		{`int h(int a) { return a; }
int main() { int x = h(h(1)) + h(2); printf("%d", x); return 0; }`, "_t1 = h(1)"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.src)
		}
		if text := Print(p); !strings.Contains(text, tc.want) {
			t.Errorf("want %q in\n%s", tc.want, text)
		}
		checkCanonical(t, tc.src)
	}
}

// TestCanonicalizeFuzzSeeds checks the canonical-numbering contract on the
// seeds, on the seeds with every newline doubled and every space
// tripled (so positions move), and on a program with hoisted calls
// through a function pointer.
func TestCanonicalizeFuzzSeeds(t *testing.T) {
	srcs := append([]string(nil), fuzzSeeds...)
	for _, src := range fuzzSeeds {
		srcs = append(srcs, strings.NewReplacer("\n", "\n\n", " ", "   ").Replace(src))
	}
	srcs = append(srcs, `int f(int a) { return a + 1; }
int main() {
  fnptr p = &f;
  int x = p(f(2)) * f(p(3) + 1);
  if (x > 0) { x = f(f(x)) - p(x); } else if (x < -1) { p(f(1)); } else { printf("%d", p(p(x))); }
  printf("%d %d", x, f(x) + p(2));
  return f(x) - x;
}`)
	parsed := 0
	for _, src := range srcs {
		if checkCanonical(t, src) {
			parsed++
		}
	}
	if parsed < 20 {
		t.Fatalf("only %d programs parse", parsed)
	}
}
