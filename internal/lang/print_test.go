package lang_test

import (
	"slices"
	"strings"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/engine"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestPrintMatchesReference holds the append-based printer to the fmt-based
// one it replaced: whole-program output must be byte-identical, and
// ProcHash of every function must equal the hash of the reference
// rendering (Advance's diff and the server's content keys depend on both).
// Inputs: the 12 Fig. 17 suites, Figs. 1, 2, 15 and 16, and every program
// TestSliceCorpusDigest emits (the poly and mono slices of each
// per-procedure printf criterion and every 4th line criterion of the 8
// Siemens suites).
func TestPrintMatchesReference(t *testing.T) {
	check := func(name string, p *lang.Program) {
		t.Helper()
		if got, want := lang.Print(p), lang.ReferencePrint(p); got != want {
			t.Fatalf("%s: Print diverges from the reference printer:\n%s\nreference:\n%s", name, got, want)
		}
		for _, f := range p.Funcs {
			if got, want := lang.ProcHash(f), lang.ReferenceProcHash(f); got != want {
				t.Fatalf("%s: ProcHash(%s) = %x, reference %x", name, f.Name, got, want)
			}
		}
	}
	for _, cfg := range workload.Benchmarks() {
		check(cfg.Name, workload.Generate(cfg))
	}
	check("fig1", workload.Fig1Program())
	check("fig2", workload.Fig2Program())
	check("fig15", workload.Fig15Program())
	check("fig16", workload.Fig16Program())

	emitted := 0
	for _, cfg := range workload.SmallBenchmarks() {
		src := lang.Print(workload.Generate(cfg))
		g := sdg.MustBuild(lang.MustParse(src))
		eng := engine.New(g)
		for _, crit := range digestCriteria(g, src) {
			if res, err := eng.Specialize(specFor(g, crit)); err == nil {
				if out, err := emit.Program(g, res.Variants()); err == nil {
					check(cfg.Name+" poly", out)
					emitted++
				}
			}
			if out, err := emit.Program(g, eng.Binkley(crit).Variants()); err == nil {
				check(cfg.Name+" mono", out)
				emitted++
			}
		}
	}
	if emitted < 1000 {
		t.Fatalf("only %d emitted slices compared; the corpus has shrunk", emitted)
	}
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
