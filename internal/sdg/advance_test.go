package sdg

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"specslice/internal/dataflow"
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
// every vertex's out and in list, in order. This is the property that
// makes Advance safe to substitute for Build anywhere downstream.
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
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for i := range want.Vertices {
		v := VertexID(i)
		for _, dir := range []struct {
			name string
			list func(*Graph, VertexID) []Edge
		}{{"out", (*Graph).Out}, {"in", (*Graph).In}} {
			g, w := dir.list(got, v), dir.list(want, v)
			if !slices.Equal(g, w) {
				t.Fatalf("%s list of %s differs:\ngot  %v\nwant %v", dir.name, want.VertexString(v), g, w)
			}
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

	// Both versions come as lang.Parse returns them, whose procedure
	// hashes Advance prints, and as specslice.ParseNormalized returns them
	// (Parse, then lang.Canonicalize), whose hashes Canonicalize recorded.
	for _, canon := range []bool{false, true} {
		parse := func(t *testing.T, src string) *lang.Program {
			p := parseAdv(t, src)
			if canon {
				lang.Canonicalize(p)
			}
			return p
		}
		oldG := MustBuild(parse(t, advBase))
		for _, tc := range edits {
			name := tc.name
			if canon {
				name += " canonicalized"
			}
			t.Run(name, func(t *testing.T) {
				newSrc := tc.edit(advBase)
				got, delta, err := Advance(oldG, parse(t, newSrc))
				if err != nil {
					t.Fatalf("Advance: %v", err)
				}
				want := MustBuild(parse(t, newSrc))
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
}

// TestAdvanceModRefStats checks what DeltaStats says about the mod/ref
// advance: which path ran, how many procedures it re-solved, and in how
// many caller rounds.
func TestAdvanceModRefStats(t *testing.T) {
	cases := []struct {
		name         string
		edit         func(string) string
		wantFallback string
		wantResolved int
		wantRounds   int
	}{
		{
			// leaf's summary is unchanged, so no caller is re-solved.
			name:         "summary-preserving statement edit",
			edit:         func(s string) string { return strings.Replace(s, "return a * b + 1;", "return a * b + 7;", 1) },
			wantResolved: 1,
		},
		{
			// store no longer reads gb before writing it: its summary
			// changes, and one round pulls in exactly its callers, mid and
			// main.
			name:         "summary-changing edit",
			edit:         func(s string) string { return strings.Replace(s, "gb = gb + v;", "gb = v;", 1) },
			wantResolved: 3,
			wantRounds:   1,
		},
		{
			name: "global added",
			edit: func(s string) string {
				return strings.Replace(s, "int ga; int gb;", "int ga; int gb; int gc;", 1)
			},
			wantFallback: dataflow.FallbackGlobals,
			wantResolved: 4,
		},
	}
	oldG := MustBuild(parseAdv(t, advBase))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, d, err := Advance(oldG, parseAdv(t, tc.edit(advBase)))
			if err != nil {
				t.Fatalf("Advance: %v", err)
			}
			if d.ModRefFallback != tc.wantFallback || d.ModRefResolved != tc.wantResolved || d.ModRefRounds != tc.wantRounds {
				t.Errorf("fallback %q, resolved %d, rounds %d; want %q, %d, %d",
					d.ModRefFallback, d.ModRefResolved, d.ModRefRounds, tc.wantFallback, tc.wantResolved, tc.wantRounds)
			}
		})
	}
	// A graph that retains no analysis state advances by a full rebuild.
	bare := MustBuild(parseAdv(t, advBase))
	bare.modref = nil
	_, d, err := Advance(bare, parseAdv(t, advBase))
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if d.ModRefFallback != dataflow.FallbackNoState || d.ProcsReused != 0 || d.ProcsRemoved != 0 {
		t.Errorf("no old state: fallback %q, reused %d, removed %d; want %q, 0, 0",
			d.ModRefFallback, d.ProcsReused, d.ProcsRemoved, dataflow.FallbackNoState)
	}
}

func TestAdvanceStableUnderReformat(t *testing.T) {
	// A reformat-only edit (indentation change) must reuse every PDG: the
	// procedure hash covers the normalized source, not the raw text.
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
