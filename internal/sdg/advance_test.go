package sdg

import (
	"fmt"
	"strings"
	"testing"

	"specslice/internal/lang"
)

const advBase = `
int ga; int gb;

int leaf(int a, int b) {
  return a * b + 1;
}

void store(int v) {
  ga = v;
  gb = gb + v;
}

int mid(int x) {
  int t = leaf(x, 2);
  store(t);
  return t + ga;
}

int main() {
  int x = 1;
  scanf("%d", &x);
  x = mid(x);
  store(x);
  printf("%d\n", ga + gb);
  return 0;
}
`

func parseAdv(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return p
}

// graphsIdentical requires got to be indistinguishable from want: same
// vertex numbering, attributes, statement positions, sites, procs, and
// edge sets. This is the property that makes Advance safe to substitute
// for Build anywhere downstream.
func graphsIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("vertices: got %d, want %d", got.NumVertices(), want.NumVertices())
	}
	for i := range want.Vertices {
		g, w := &got.Vertices[i], &want.Vertices[i]
		if g.Kind != w.Kind || g.Proc != w.Proc || g.Site != w.Site ||
			g.Param != w.Param || g.Var != w.Var || g.IsReturn != w.IsReturn ||
			got.Label(VertexID(i)) != want.Label(VertexID(i)) {
			t.Fatalf("vertex %d differs:\ngot  %+v\nwant %+v", i, *g, *w)
		}
		switch {
		case (g.Stmt == nil) != (w.Stmt == nil):
			t.Fatalf("vertex %d: stmt presence differs", i)
		case g.Stmt != nil:
			if g.Stmt.Base().Pos != w.Stmt.Base().Pos || g.Stmt.Base().ID != w.Stmt.Base().ID {
				t.Fatalf("vertex %d: stmt identity differs: got %v/#%d want %v/#%d",
					i, g.Stmt.Base().Pos, g.Stmt.Base().ID, w.Stmt.Base().Pos, w.Stmt.Base().ID)
			}
		}
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("sites: got %d, want %d", len(got.Sites), len(want.Sites))
	}
	for i := range want.Sites {
		g, w := got.Sites[i], want.Sites[i]
		if g.ID != w.ID || g.CallerProc != w.CallerProc || g.Callee != w.Callee ||
			g.Lib != w.Lib || g.CallVertex != w.CallVertex ||
			fmt.Sprint(g.ActualIns) != fmt.Sprint(w.ActualIns) ||
			fmt.Sprint(g.ActualOuts) != fmt.Sprint(w.ActualOuts) {
			t.Fatalf("site %d differs:\ngot  %+v\nwant %+v", i, *g, *w)
		}
	}
	if len(got.Procs) != len(want.Procs) {
		t.Fatalf("procs: got %d, want %d", len(got.Procs), len(want.Procs))
	}
	for i := range want.Procs {
		g, w := got.Procs[i], want.Procs[i]
		if g.Name != w.Name || g.Entry != w.Entry ||
			fmt.Sprint(g.FormalIns) != fmt.Sprint(w.FormalIns) ||
			fmt.Sprint(g.FormalOuts) != fmt.Sprint(w.FormalOuts) ||
			fmt.Sprint(g.Vertices) != fmt.Sprint(w.Vertices) ||
			fmt.Sprint(g.Sites) != fmt.Sprint(w.Sites) {
			t.Fatalf("proc %d (%s) differs:\ngot  %+v\nwant %+v", i, w.Name, *g, *w)
		}
	}
	edgeSet := func(g *Graph) map[Edge]bool {
		m := map[Edge]bool{}
		for _, e := range g.Edges() {
			m[e] = true
		}
		return m
	}
	ge, we := edgeSet(got), edgeSet(want)
	for e := range we {
		if !ge[e] {
			t.Errorf("missing edge %v -%v-> %v", want.VertexString(e.From), e.Kind, want.VertexString(e.To))
		}
	}
	for e := range ge {
		if !we[e] {
			t.Errorf("extra edge %v -%v-> %v", got.VertexString(e.From), e.Kind, got.VertexString(e.To))
		}
	}
}

func TestAdvanceMatchesBuild(t *testing.T) {
	edits := []struct {
		name       string
		edit       func(string) string
		wantReused int // procedures whose PDG must be replayed
	}{
		{
			name:       "identical program",
			edit:       func(s string) string { return s },
			wantReused: 4,
		},
		{
			name: "statement edit in a leaf",
			edit: func(s string) string {
				return strings.Replace(s, "return a * b + 1;", "return a * b + 7;", 1)
			},
			wantReused: 3,
		},
		{
			name: "statement insert in main shifts lines",
			edit: func(s string) string {
				return strings.Replace(s, "int x = 1;", "int x = 1;\n  x = x + 4;", 1)
			},
			wantReused: 3,
		},
		{
			// store's GMOD/formal-in interface changes, so its callers
			// (mid, main) must rebuild too; only leaf survives.
			name: "interface change ripples to callers",
			edit: func(s string) string {
				return strings.Replace(s, "gb = gb + v;", "gb = v;", 1)
			},
			wantReused: 1,
		},
		{
			name: "procedure added",
			edit: func(s string) string {
				return strings.Replace(s, "int main", "int extra(int q) {\n  return q + 40;\n}\n\nint main", 1)
			},
			wantReused: 4,
		},
		{
			name: "procedure removed with its call sites",
			edit: func(s string) string {
				s = strings.Replace(s, "int t = leaf(x, 2);", "int t = x + 2;", 1)
				return strings.Replace(s, "int leaf(int a, int b) {\n  return a * b + 1;\n}\n\n", "", 1)
			},
			wantReused: 2, // store, main
		},
		{
			name: "global added and used",
			edit: func(s string) string {
				s = strings.Replace(s, "int ga; int gb;", "int ga; int gb; int gc;", 1)
				return strings.Replace(s, "ga = v;", "ga = v;\n  gc = v;", 1)
			},
			wantReused: 1, // leaf only: store's interface grows, callers follow
		},
	}

	oldProg := parseAdv(t, advBase)
	oldG := MustBuild(oldProg)
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			newSrc := tc.edit(advBase)
			got, delta, err := Advance(oldG, parseAdv(t, newSrc))
			if err != nil {
				t.Fatalf("Advance: %v", err)
			}
			want := MustBuild(parseAdv(t, newSrc))
			graphsIdentical(t, got, want)
			if delta.ProcsReused != tc.wantReused {
				t.Errorf("ProcsReused = %d, want %d (delta %+v)", delta.ProcsReused, tc.wantReused, *delta)
			}
			if delta.ProcsReused+delta.ProcsRebuilt != len(want.Procs) {
				t.Errorf("reused %d + rebuilt %d != %d procs", delta.ProcsReused, delta.ProcsRebuilt, len(want.Procs))
			}
		})
	}
}

func TestAdvanceStableUnderReformat(t *testing.T) {
	// A reformat-only edit (indentation change) must reuse every PDG: the
	// build signature hashes the normalized source, not the raw text.
	oldG := MustBuild(parseAdv(t, advBase))
	reform := strings.ReplaceAll(advBase, "\n  ", "\n        ")
	got, delta, err := Advance(oldG, parseAdv(t, reform))
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if delta.ProcsRebuilt != 0 {
		t.Errorf("reformat rebuilt %d procs, want 0", delta.ProcsRebuilt)
	}
	graphsIdentical(t, got, MustBuild(parseAdv(t, reform)))
}

func TestAdvanceRejectsIndirectCalls(t *testing.T) {
	oldG := MustBuild(parseAdv(t, advBase))
	src := `
fnptr fp;

int f(int a) {
  return a;
}

int main() {
  fp = &f;
  int r = fp(3);
  printf("%d\n", r);
  return 0;
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, _, err := Advance(oldG, prog); err == nil {
		t.Fatal("Advance accepted a program with indirect calls")
	}
}
