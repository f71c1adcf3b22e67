package sdg_test

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// sdgCorpusDigest pins every graph the corpus below builds or advances:
// vertices with their attributes, labels and statement positions, sites,
// procedures, and every vertex's out and in lists in order. Recompute it
// only for a change that is meant to alter the SDG.
const sdgCorpusDigest = "4f9dc673fb9ef0bc5d9fb5ee6bc7e6212b81a9c4ca1c72907c346c34d36dacba"

// corpusCopies is how many generated copies of each Siemens suite the
// corpus builds; copy k uses the suite's seed plus 1000·k, as the
// cold_miss benchmark corpus does.
const corpusCopies = 6

// chainSteps is the length of each editor chain Advance walks.
const chainSteps = 24

// siemensPrograms returns copies programs per Fig. 17 Siemens suite.
func siemensPrograms(copies int) []*lang.Program {
	var out []*lang.Program
	for _, cfg := range workload.SmallBenchmarks() {
		for k := 0; k < copies; k++ {
			c := cfg
			c.Seed += int64(1000 * k)
			out = append(out, workload.Generate(c))
		}
	}
	return out
}

func gzipProgram() *lang.Program {
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name == "gzip" {
			return workload.Generate(cfg)
		}
	}
	panic("no gzip suite")
}

// editorChain returns base followed by steps editor versions of it. With
// preserve set, a step is retried from the current version under a fresh
// editor seed until every procedure's mod/ref interface is what base had,
// as the edit_stream benchmark's edits are.
func editorChain(base *lang.Program, seed int64, steps int, preserve bool) []*lang.Program {
	rng := rand.New(rand.NewSource(seed))
	ed := workload.NewEditor(base, rng.Int63())
	chain := []*lang.Program{ed.Program()}
	iface := interfaceOf(ed.Program())
	for len(chain) <= steps {
		ed.Step()
		if preserve && interfaceOf(ed.Program()) != iface {
			ed = workload.NewEditor(chain[len(chain)-1], rng.Int63())
			continue
		}
		chain = append(chain, ed.Program())
	}
	return chain
}

// interfaceOf renders every procedure's mod/ref summary as the SDG build
// reads it.
func interfaceOf(p *lang.Program) string {
	mr := dataflow.ComputeModRef(p)
	var b strings.Builder
	for _, fn := range p.Funcs {
		fmt.Fprintf(&b, "%s %v %v %v\n", fn.Name, mr.GMODNames(fn.Name), mr.MustModNames(fn.Name), mr.FormalInGlobalNames(fn.Name))
	}
	return b.String()
}

// graphHasher appends a canonical encoding of graphs to one SHA-256.
type graphHasher struct {
	buf []byte
	h   hash.Hash
}

func newGraphHasher() *graphHasher { return &graphHasher{h: sha256.New()} }

func (x *graphHasher) int(v int)    { x.buf = binary.AppendVarint(x.buf, int64(v)) }
func (x *graphHasher) str(s string) { x.int(len(s)); x.buf = append(x.buf, s...) }

func (x *graphHasher) ids(vs []sdg.VertexID) {
	x.int(len(vs))
	for _, v := range vs {
		x.int(int(v))
	}
}

func (x *graphHasher) stmt(s lang.Stmt) {
	if s == nil {
		x.int(-1)
		return
	}
	b := s.Base()
	x.int(b.Pos.Line)
	x.int(b.Pos.Col)
	x.int(int(b.ID))
}

func (x *graphHasher) edges(es []sdg.Edge) {
	x.int(len(es))
	for _, e := range es {
		x.int(int(e.From))
		x.int(int(e.To))
		x.int(int(e.Kind))
	}
}

// graph hashes g and reports an out list that repeats a (to, kind) pair.
func (x *graphHasher) graph(t *testing.T, name string, g *sdg.Graph) {
	t.Helper()
	x.str(name)
	x.int(g.NumVertices())
	for i := range g.Vertices {
		id := sdg.VertexID(i)
		v := &g.Vertices[i]
		x.int(int(v.ID))
		x.int(int(v.Kind))
		x.int(v.Proc)
		x.int(int(v.Site))
		x.int(v.Param)
		x.str(v.Var)
		if v.IsReturn {
			x.int(1)
		} else {
			x.int(0)
		}
		x.str(g.Label(id))
		x.stmt(v.Stmt)
	}
	x.int(len(g.Sites))
	for _, s := range g.Sites {
		x.int(int(s.ID))
		x.int(s.CallerProc)
		x.str(s.Callee)
		if s.Lib {
			x.int(1)
		} else {
			x.int(0)
		}
		x.int(int(s.CallVertex))
		x.ids(s.ActualIns)
		x.ids(s.ActualOuts)
		x.stmt(s.Stmt)
	}
	x.int(len(g.Procs))
	for _, p := range g.Procs {
		x.int(p.Index)
		x.str(p.Name)
		x.int(int(p.Entry))
		x.ids(p.FormalIns)
		x.ids(p.FormalOuts)
		x.ids(p.Vertices)
		x.int(len(p.Sites))
		for _, s := range p.Sites {
			x.int(int(s))
		}
	}
	type target struct {
		to   sdg.VertexID
		kind sdg.EdgeKind
	}
	for i := range g.Vertices {
		v := sdg.VertexID(i)
		out := g.Out(v)
		seen := make(map[target]bool, len(out))
		for _, e := range out {
			if e.From != v {
				t.Fatalf("%s: out list of v%d holds edge %v", name, v, e)
			}
			k := target{e.To, e.Kind}
			if seen[k] {
				t.Fatalf("%s: out list of v%d repeats %v edge to v%d", name, v, e.Kind, e.To)
			}
			seen[k] = true
		}
		x.edges(out)
		x.edges(g.In(v))
	}
	x.h.Write(x.buf)
	x.buf = x.buf[:0]
}

func (x *graphHasher) sum() string { return hex.EncodeToString(x.h.Sum(nil)) }

// TestSDGCorpusDigest pins the graphs Build and Advance produce on a fixed
// corpus: Build of the 8 Siemens suites × 6 copies, gzip and Figs. 1–2;
// and Advance along a 24-step editor chain per suite, interface-preserving
// and unrestricted, once over the editor's lang.Parse programs and once
// over their canonicalized twins. The digest covers numbering,
// attributes, labels, statement positions and out/in list order, so any
// change to how the graph is stored must reproduce it exactly. The walk
// also asserts that no out list repeats a (to, kind) pair.
func TestSDGCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus digest builds ~500 graphs")
	}
	x := newGraphHasher()
	progs := siemensPrograms(corpusCopies)
	progs = append(progs, gzipProgram(), workload.Fig1Program(), workload.Fig2Program())
	for i, p := range progs {
		g, err := sdg.Build(p)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		x.graph(t, fmt.Sprintf("build %d", i), g)
	}
	// The chains are walked twice from here: as the editor's lang.Parse
	// programs, whose procedure hashes Advance prints, and canonicalized
	// as specslice.ParseNormalized leaves them, whose hashes
	// lang.Canonicalize recorded. Both must give the pinned graphs.
	state, err := x.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A third walk hashes Build of every version in place of Advance, so
	// the digest also asserts that each advanced graph is exactly the
	// graph Build gives the same version, list order included.
	y, z := newGraphHasher(), newGraphHasher()
	for _, w := range []*graphHasher{y, z} {
		if err := w.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
	}
	canonical := func(p *lang.Program) *lang.Program {
		c := lang.MustParse(lang.Print(p))
		lang.Canonicalize(c)
		return c
	}
	for si, base := range siemensPrograms(1) {
		for _, preserve := range []bool{true, false} {
			chain := editorChain(base, int64(7000+si), chainSteps, preserve)
			g, gc := sdg.MustBuild(chain[0]), sdg.MustBuild(canonical(chain[0]))
			for k, next := range chain[1:] {
				var err error
				if g, _, err = sdg.Advance(g, next); err != nil {
					t.Fatalf("suite %d preserve=%v step %d: %v", si, preserve, k, err)
				}
				if gc, _, err = sdg.Advance(gc, canonical(next)); err != nil {
					t.Fatalf("suite %d preserve=%v step %d, canonicalized: %v", si, preserve, k, err)
				}
				name := fmt.Sprintf("advance %d %v %d", si, preserve, k)
				x.graph(t, name, g)
				y.graph(t, name, gc)
				z.graph(t, name, sdg.MustBuild(next))
			}
		}
	}
	if got := x.sum(); got != sdgCorpusDigest {
		t.Fatalf("SDG corpus digest = %s, want %s", got, sdgCorpusDigest)
	}
	if got := y.sum(); got != sdgCorpusDigest {
		t.Fatalf("SDG corpus digest over canonicalized programs = %s, want %s", got, sdgCorpusDigest)
	}
	if got := z.sum(); got != sdgCorpusDigest {
		t.Fatalf("SDG corpus digest with Build in place of Advance = %s, want %s", got, sdgCorpusDigest)
	}
}
