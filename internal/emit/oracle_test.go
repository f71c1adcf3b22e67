package emit

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"specslice/internal/core"
	"specslice/internal/engine"
	"specslice/internal/funcptr"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestEmitMatchesReference holds the list-based emitter to the map-based
// one it replaced (reference_test.go): the same printed text, the same
// pre-order sequence of statement Origins, and the same error text when
// either side fails. Inputs: the poly and mono slices of
// TestSliceCorpusDigest's criteria, of every line of globalTargetsSrc, of
// Figs. 1 and 2 and of Fig. 15 after the funcptr transformation; the
// feature removals of TestFeatureRemovalCorpusDigest's criteria; and the
// all-printf slice and every 32nd vertex of gzip, space, flex and go. The
// groups run in parallel: most of their time is slicing, not emission.
func TestEmitMatchesReference(t *testing.T) {
	t.Run("digest", func(t *testing.T) {
		t.Parallel()
		n := 0
		for _, cfg := range workload.SmallBenchmarks() {
			src := lang.Print(workload.Generate(cfg))
			g := sdg.MustBuild(lang.MustParse(src))
			eng := engine.New(g)
			for i, crit := range digestCriteria(g, src) {
				n += compareSlices(t, fmt.Sprintf("%s criterion %d", cfg.Name, i), g, eng, crit)
			}
		}
		g := sdg.MustBuild(lang.MustParse(globalTargetsSrc))
		eng := engine.New(g)
		for line := 1; line <= strings.Count(globalTargetsSrc, "\n"); line++ {
			if crit := lineCriterion(g, line); len(crit) > 0 {
				n += compareSlices(t, fmt.Sprintf("global targets line:%d", line), g, eng, crit)
			}
		}
		fig15, _, err := funcptr.Transform(workload.Fig15Program())
		if err != nil {
			t.Fatal(err)
		}
		for name, prog := range map[string]*lang.Program{
			"fig1": workload.Fig1Program(), "fig2": workload.Fig2Program(), "fig15": fig15,
		} {
			g := sdg.MustBuild(prog)
			n += compareSlices(t, name, g, engine.New(g), core.PrintfCriterion(g, "main"))
		}
		t.Logf("%d emissions compared", n)
	})
	t.Run("removal", func(t *testing.T) {
		t.Parallel()
		n := 0
		for _, cfg := range workload.SmallBenchmarks() {
			src := lang.Print(workload.Generate(cfg))
			g := sdg.MustBuild(lang.MustParse(src))
			eng := engine.New(g)
			lines := strings.Count(src, "\n") + 1
			for line := 1; line <= lines; line += 16 {
				crit := lineCriterion(g, line)
				if len(crit) == 0 {
					continue
				}
				if res, err := eng.RemoveFeature(crit); err == nil {
					n += compareEmit(t, fmt.Sprintf("%s remove line:%d", cfg.Name, line), g, res.Variants())
					res.Release()
				}
			}
		}
		t.Logf("%d emissions compared", n)
	})
	for _, cfg := range workload.Benchmarks()[8:] {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			g := sdg.MustBuild(workload.Generate(cfg))
			eng := engine.New(g)
			n := comparePoly(t, "all-printf", g, eng, core.Vertices(core.PrintfCriterion(g, "")))
			for v := 0; v < len(g.Vertices); v += 32 {
				n += comparePoly(t, fmt.Sprintf("vertex %d", v), g, eng, core.Vertices{sdg.VertexID(v)})
			}
			t.Logf("%d emissions compared", n)
		})
	}
}

// globalTargetsSrc has globals that only a call's result or a scanf
// writes; a line criterion on such a statement leaves it their only
// reference in the emitted program.
const globalTargetsSrc = `int g; int h;
int f(int a) { return a + 1; }
void p() { g = f(h); }
int main() {
  g = f(2);
  scanf("%d", &h);
  p();
  printf("%d", 1);
  return 0;
}
`

// compareSlices compares the emissions of crit's polyvariant and
// monovariant slices, reporting how many it compared.
func compareSlices(t *testing.T, name string, g *sdg.Graph, eng *engine.Engine, crit []sdg.VertexID) int {
	t.Helper()
	return comparePoly(t, name, g, eng, specFor(g, crit)) + compareEmit(t, name+" mono", g, eng.Binkley(crit).Variants())
}

// comparePoly compares the emissions of spec's specialization slice, when
// it has one, reporting how many it compared.
func comparePoly(t *testing.T, name string, g *sdg.Graph, eng *engine.Engine, spec core.CriterionSpec) int {
	t.Helper()
	res, err := eng.Specialize(spec)
	if err != nil {
		return 0
	}
	defer res.Release()
	return compareEmit(t, name, g, res.Variants())
}

// compareEmit emits vars with both emitters and requires the same text,
// origins and errors; it returns 1, the number of emissions compared.
func compareEmit(t *testing.T, name string, g *sdg.Graph, vars []core.ProcVariant) int {
	t.Helper()
	got, gotErr := Program(g, vars)
	want, wantErr := referenceProgram(g, vars)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		return 1
	}
	if a, b := lang.Print(got), lang.Print(want); a != b {
		t.Fatalf("%s: emitted text differs from the reference:\n%s\nreference:\n%s", name, a, b)
	}
	if a, b := origins(got), origins(want); !slices.Equal(a, b) {
		t.Fatalf("%s: statement origins %v, reference %v", name, a, b)
	}
	return 1
}

// origins lists the Origin of every statement of p, in pre-order.
func origins(p *lang.Program) []lang.NodeID {
	var out []lang.NodeID
	for _, f := range p.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) { out = append(out, s.Base().Origin) })
	}
	return out
}

// TestEmitConcurrentFirstUse emits from 8 goroutines on a fresh engine, so
// the graph's statement index is built under contention; every emission
// must match a sequential one. Run it under -race.
func TestEmitConcurrentFirstUse(t *testing.T) {
	src := lang.Print(workload.Generate(workload.SmallBenchmarks()[4]))
	want := func() []string {
		g := sdg.MustBuild(lang.MustParse(src))
		return emitAll(t, g, engine.New(g))
	}()

	g := sdg.MustBuild(lang.MustParse(src))
	eng := engine.New(g)
	var wg sync.WaitGroup
	got := make([][]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = emitAll(t, g, eng)
		}()
	}
	wg.Wait()
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Fatalf("goroutine %d: concurrent emission differs from the sequential one", i)
		}
	}
}

// emitAll emits the poly and mono slices of every per-procedure printf
// criterion of g.
func emitAll(t *testing.T, g *sdg.Graph, eng *engine.Engine) []string {
	var out []string
	for _, p := range g.Procs {
		crit := core.PrintfCriterion(g, p.Name)
		if len(crit) == 0 {
			continue
		}
		if res, err := eng.Specialize(specFor(g, crit)); err == nil {
			text, err := Source(g, res.Variants())
			res.Release()
			out = append(out, text, fmt.Sprint(err))
		}
		text, err := Source(g, eng.Binkley(crit).Variants())
		out = append(out, text, fmt.Sprint(err))
	}
	if len(out) == 0 {
		t.Error("no slices emitted")
	}
	return out
}

// digestCriteria lists TestSliceCorpusDigest's criteria on one suite: the
// printf criterion of every procedure, in name order, then every 4th line.
// Criteria that select nothing are skipped.
func digestCriteria(g *sdg.Graph, src string) [][]sdg.VertexID {
	var out [][]sdg.VertexID
	names := make([]string, 0, len(g.Procs))
	for _, p := range g.Procs {
		names = append(names, p.Name)
	}
	slices.Sort(names)
	for _, name := range names {
		if vs := core.PrintfCriterion(g, name); len(vs) > 0 {
			out = append(out, vs)
		}
	}
	n := strings.Count(src, "\n") + 1
	for line := 1; line <= n; line += 4 {
		if vs := lineCriterion(g, line); len(vs) > 0 {
			out = append(out, vs)
		}
	}
	return out
}

// lineCriterion mirrors specslice.SDG.LineCriterion.
func lineCriterion(g *sdg.Graph, line int) []sdg.VertexID {
	var vs []sdg.VertexID
	for _, v := range g.Vertices {
		if v.Stmt == nil || v.Stmt.Base().Pos.Line != line {
			continue
		}
		switch v.Kind {
		case sdg.KindStmt, sdg.KindPredicate:
			vs = append(vs, v.ID)
		case sdg.KindCall:
			site := g.Sites[v.Site]
			vs = append(vs, site.ActualIns...)
			vs = append(vs, site.ActualOuts...)
			if len(site.ActualIns)+len(site.ActualOuts) == 0 {
				vs = append(vs, v.ID)
			}
		}
	}
	return vs
}

// specFor mirrors specslice's choice of configuration language: explicit
// empty-stack configurations when every vertex is in main, otherwise all
// reachable calling contexts.
func specFor(g *sdg.Graph, vs []sdg.VertexID) core.CriterionSpec {
	var cfgs core.Configs
	for _, v := range vs {
		if g.Procs[g.Vertices[v].Proc].Name != "main" {
			return core.Vertices(vs)
		}
		cfgs = append(cfgs, core.Config{Vertex: v})
	}
	return cfgs
}
