package sdg

import (
	"math/rand"
	"testing"

	"specslice/internal/lang"
	"specslice/internal/workload"
)

func snapshotPrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	progs := map[string]*lang.Program{
		"advBase": parseAdv(t, advBase),
	}
	for _, cfg := range workload.Benchmarks()[:3] {
		progs[cfg.Name] = workload.Generate(cfg)
	}
	if testing.Short() {
		return map[string]*lang.Program{"advBase": progs["advBase"]}
	}
	return progs
}

// TestSnapshotRoundTripIdentity holds DecodeSnapshot(EncodeSnapshot(g)) to
// the same structural-identity bar as Advance vs Build: identical vertex
// numbering and attributes, identical sites and procedure skeletons, an
// identical edge set, and rebuilt mod/ref state equal to the original's —
// the decoded graph must be substitutable for the built one everywhere,
// including as the ancestor of a version chain.
func TestSnapshotRoundTripIdentity(t *testing.T) {
	for name, prog := range snapshotPrograms(t) {
		t.Run(name, func(t *testing.T) {
			want := MustBuild(prog)
			data, err := EncodeSnapshot(want)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// The decoded graph carries re-parsed statements, so statement
			// identity is positional rather than pointer-based; compare
			// everything else exactly and statements by pre-order ordinal.
			if got.NumVertices() != want.NumVertices() {
				t.Fatalf("vertices: got %d, want %d", got.NumVertices(), want.NumVertices())
			}
			wantOrd := stmtOrdinals(want.Prog)
			gotOrd := stmtOrdinals(got.Prog)
			for i := range want.Vertices {
				g, w := &got.Vertices[i], &want.Vertices[i]
				if g.Kind != w.Kind || g.Proc != w.Proc || g.Site != w.Site ||
					g.Param != w.Param || g.Var != w.Var || g.IsReturn != w.IsReturn ||
					got.Label(VertexID(i)) != want.Label(VertexID(i)) {
					t.Fatalf("vertex %d differs:\ngot  %+v\nwant %+v", i, *g, *w)
				}
				if (g.Stmt == nil) != (w.Stmt == nil) {
					t.Fatalf("vertex %d: stmt presence differs", i)
				}
				if g.Stmt != nil && gotOrd[g.Stmt] != wantOrd[w.Stmt] {
					t.Fatalf("vertex %d: stmt ordinal %d, want %d", i, gotOrd[g.Stmt], wantOrd[w.Stmt])
				}
			}
			if len(got.Sites) != len(want.Sites) {
				t.Fatalf("sites: got %d, want %d", len(got.Sites), len(want.Sites))
			}
			for i := range want.Sites {
				g, w := got.Sites[i], want.Sites[i]
				if g.ID != w.ID || g.CallerProc != w.CallerProc || g.Callee != w.Callee ||
					g.Lib != w.Lib || g.CallVertex != w.CallVertex ||
					!idsEqual(g.ActualIns, w.ActualIns) || !idsEqual(g.ActualOuts, w.ActualOuts) {
					t.Fatalf("site %d differs:\ngot  %+v\nwant %+v", i, *g, *w)
				}
			}
			for i := range want.Procs {
				g, w := got.Procs[i], want.Procs[i]
				if g.Name != w.Name || g.Entry != w.Entry ||
					!idsEqual(g.FormalIns, w.FormalIns) || !idsEqual(g.FormalOuts, w.FormalOuts) ||
					!idsEqual(g.Vertices, w.Vertices) || len(g.Sites) != len(w.Sites) {
					t.Fatalf("proc %s differs:\ngot  %+v\nwant %+v", w.Name, *g, *w)
				}
			}
			if got.NumEdges() != want.NumEdges() {
				t.Fatalf("edges: got %d, want %d", got.NumEdges(), want.NumEdges())
			}
			for v := 0; v < want.NumVertices(); v++ {
				ge, we := got.Out(VertexID(v)), want.Out(VertexID(v))
				if len(ge) != len(we) {
					t.Fatalf("vertex %d: %d out-edges, want %d", v, len(ge), len(we))
				}
				for j := range we {
					if ge[j] != we[j] {
						t.Fatalf("vertex %d edge %d: got %+v, want %+v", v, j, ge[j], we[j])
					}
				}
			}
			// The rebuild-marker structures must come back equal to the
			// original build's, or Advance from a decoded ancestor would
			// diverge from Advance from the live one.
			for name, sig := range want.buildSigs {
				if got.buildSigs[name] != sig {
					t.Fatalf("buildSigs[%s]: got %d, want %d", name, got.buildSigs[name], sig)
				}
			}
			for name, h := range want.procHashes {
				if got.procHashes[name] != h {
					t.Fatalf("procHashes[%s]: got %d, want %d", name, got.procHashes[name], h)
				}
			}
			if got.modref == nil {
				t.Fatal("decoded graph has no mod/ref state")
			}
		})
	}
}

func stmtOrdinals(p *lang.Program) map[lang.Stmt]int {
	ord := map[lang.Stmt]int{}
	for _, fn := range p.Funcs {
		for i, s := range fn.Stmts() {
			ord[s] = i
		}
	}
	return ord
}

func idsEqual[T VertexID | SiteID](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRejectsOldVersion: snapshots of an earlier format version
// (whose edge section carried summary edges) fail to decode, so the
// store's reader falls back to a build instead of misreading them.
func TestSnapshotRejectsOldVersion(t *testing.T) {
	data, err := EncodeSnapshot(MustBuild(parseAdv(t, advBase)))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	data[len(snapshotMagic)-1] = 1
	if _, err := DecodeSnapshot(data); err == nil {
		t.Fatal("decoded a snapshot with format version 1")
	}
}

// TestSnapshotAdvanceFromDecoded requires a decoded graph to be a working
// version-chain ancestor: advancing it over an edit must produce the same
// graph as advancing the original.
func TestSnapshotAdvanceFromDecoded(t *testing.T) {
	old := parseAdv(t, advBase)
	edited := parseAdv(t, advBase+`
int extra(int q) {
  return q + 41;
}
`)
	want := MustBuild(old)
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fromLive, _, err := Advance(want, edited)
	if err != nil {
		t.Fatalf("advance live: %v", err)
	}
	fromDisk, _, err := Advance(decoded, edited)
	if err != nil {
		t.Fatalf("advance decoded: %v", err)
	}
	graphsIdentical(t, fromDisk, fromLive)
}

// TestSnapshotDecodeHostileBytes drives the decoder over every truncation
// of a valid snapshot and thousands of seeded single-byte corruptions. The
// contract is the store's graceful-degradation invariant: an error or a
// structurally valid graph, never a panic.
func TestSnapshotDecodeHostileBytes(t *testing.T) {
	g := MustBuild(parseAdv(t, advBase))
	data, err := EncodeSnapshot(g)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
	rng := rand.New(rand.NewSource(7))
	flips := 4000
	if testing.Short() {
		flips = 500
	}
	for i := 0; i < flips; i++ {
		mut := append([]byte(nil), data...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 + rng.Intn(255))
		// Either outcome is fine; what matters is no panic and no
		// absurd allocation (the -race CI run would catch a crash, and
		// readCount bounds every allocation by len(data)). A graph the
		// decoder accepts must also render every label, since labels are
		// computed on demand from the decoded statements.
		if dec, err := DecodeSnapshot(mut); err == nil {
			for v := range dec.Vertices {
				_ = dec.Label(VertexID(v))
			}
		}
	}
	// An actual-in whose argument index exceeds its call's arguments
	// would make its label index past the argument list.
	for i := range g.Vertices {
		if v := &g.Vertices[i]; v.Kind == KindActualIn && v.Param != NoParam {
			v.Param += 100
			bad, err := EncodeSnapshot(g)
			v.Param -= 100
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, err := DecodeSnapshot(bad); err == nil {
				t.Fatal("decoded an actual-in past its call's arguments")
			}
			break
		}
	}
	junk := [][]byte{
		nil,
		[]byte("not a snapshot"),
		[]byte(snapshotMagic),
		append([]byte(snapshotMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for i, b := range junk {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Fatalf("junk input %d decoded cleanly", i)
		}
	}
}
