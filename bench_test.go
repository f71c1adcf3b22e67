package specslice_test

// One benchmark per table/figure of the paper's evaluation. Run:
//
//	go test -bench=. -benchmem
//
// The full tables (with the paper-vs-measured comparison) are produced by
// cmd/experiments; these benches time the kernels each table depends on and
// report the headline metric of the corresponding figure via ReportMetric.

import (
	"strings"
	"testing"

	"specslice"
	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/engine"
	"specslice/internal/fsa"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/mono"
	"specslice/internal/sdg"
	"specslice/internal/slice"
	"specslice/internal/workload"
)

func configsFor(vs []sdg.VertexID) core.Configs {
	var out core.Configs
	for _, v := range vs {
		out = append(out, core.Config{Vertex: v})
	}
	return out
}

func benchConfig(name string) workload.BenchConfig {
	for _, c := range workload.Benchmarks() {
		if c.Name == name {
			return c
		}
	}
	panic("unknown benchmark " + name)
}

// BenchmarkFig14Slices times the paper's running example end to end:
// polyvariant slice of Fig. 1 including program emission.
func BenchmarkFig14Slices(b *testing.B) {
	prog := workload.Fig1Program()
	g := sdg.MustBuild(prog)
	crit := core.PrintfCriterion(g, "main")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Specialize(g, configsFor(crit))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := emit.Program(g, res.Variants()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuse compares the cold one-shot path (parse + SDG build
// + encode + slice per request, the public API's cold start) against warm
// slices served from one reused engine on the Fig. 14 workload. The warm
// path amortizes the SDG, the PDS encoding, and the Prestar rule indexes.
func BenchmarkEngineReuse(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := specslice.MustParse(workload.Fig1Source).SDG()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.SpecializationSlice(g.PrintfCriterion("main")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng, err := specslice.MustParse(workload.Fig1Source).Engine()
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Warm(); err != nil {
			b.Fatal(err)
		}
		crit := eng.SDG().PrintfCriterion("main")
		if _, err := eng.SpecializationSlice(crit); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SpecializationSlice(crit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAutomatonPipeline isolates the Alg.-1 automaton half (lines 4–8)
// on a replace-suite slice automaton: the fused MRD chain (reversal folded
// into the subset construction, shared scratch arena, no epsilon-removal
// pass) against the composed per-operation chain it replaced.
func BenchmarkAutomatonPipeline(b *testing.B) {
	cfg := benchConfig("replace")
	g := sdg.MustBuild(workload.Generate(cfg))
	crit := printfSites(g)[0]
	res, err := core.Specialize(g, configsFor(crit))
	if err != nil {
		b.Fatal(err)
	}
	a1 := res.A1
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a6, _ := fsa.MRD(a1); a6.NumStates() == 0 {
				b.Fatal("empty MRD result")
			}
		}
	})
	b.Run("composed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a6 := a1.Reverse().Determinize().Minimize().Reverse().RemoveEpsilon()
			if a6.NumStates() == 0 {
				b.Fatal("empty composed result")
			}
		}
	})
}

// BenchmarkBatchSlices fans 16 criteria over the tcas suite: sequential
// one-shot slicing (rebuild everything per criterion) vs. the engine's
// SliceAll with a GOMAXPROCS worker pool sharing one analysis state.
func BenchmarkBatchSlices(b *testing.B) {
	cfg := benchConfig("tcas")
	prog := workload.Generate(cfg)
	g := sdg.MustBuild(prog)
	sites := printfSites(g)
	const batchSize = 16
	var crits [][]sdg.VertexID
	for i := 0; len(crits) < batchSize; i++ {
		crits = append(crits, sites[i%len(sites)])
	}
	b.Run("sequential-oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range crits {
				gg := sdg.MustBuild(prog)
				if _, err := core.Specialize(gg, configsFor(c)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine-batch", func(b *testing.B) {
		eng := engine.New(g)
		reqs := make([]engine.Request, len(crits))
		for i, c := range crits {
			reqs[i] = engine.Request{Mode: engine.ModePoly, Spec: configsFor(c)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resps, _ := eng.SliceAll(reqs, engine.BatchOptions{})
			for _, r := range resps {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// BenchmarkFig13Exponential sweeps the §4.3 family; the variant count
// (2^k − 1) is the figure's y-axis.
func BenchmarkFig13Exponential(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		b.Run(map[int]string{2: "k=2", 4: "k=4", 6: "k=6"}[k], func(b *testing.B) {
			g := sdg.MustBuild(workload.PkProgram(k))
			crit := core.PrintfCriterion(g, "main")
			var variants int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Specialize(g, configsFor(crit))
				if err != nil {
					b.Fatal(err)
				}
				variants = res.VariantCounts()["Pk"]
			}
			b.ReportMetric(float64(variants), "variants")
		})
	}
}

// BenchmarkFig17BuildSDG times front-end + SDG construction per suite.
func BenchmarkFig17BuildSDG(b *testing.B) {
	for _, cfg := range []workload.BenchConfig{benchConfig("tcas"), benchConfig("replace"), benchConfig("gzip")} {
		cfg := cfg
		src := workload.GenerateSource(cfg)
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := lang.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sdg.Build(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig18Distribution times the per-suite specialization sweep whose
// variant histogram is Fig. 18, reporting the multi-version share.
func BenchmarkFig18Distribution(b *testing.B) {
	cfg := benchConfig("schedule2")
	g := sdg.MustBuild(workload.Generate(cfg))
	crits := printfSites(g)
	var multi, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multi, total = 0, 0
		for _, crit := range crits {
			res, err := core.Specialize(g, configsFor(crit))
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range res.VariantCounts() {
				total++
				if n > 1 {
					multi++
				}
			}
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(multi)/float64(total), "multi-version-%")
	}
}

// BenchmarkFig19SliceGrowth measures poly slice size relative to the
// closure slice (the table's column), timing the polyvariant slicer.
func BenchmarkFig19SliceGrowth(b *testing.B) {
	for _, name := range []string{"tcas", "print_tokens", "space"} {
		cfg := benchConfig(name)
		b.Run(name, func(b *testing.B) {
			prog := workload.Generate(cfg)
			g := sdg.MustBuild(prog)
			crit := narrowCriterion(g)
			closure := len(mono.Binkley(g, slice.ComputeSummaries(g), crit).Closure)
			var growth float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Specialize(g, configsFor(crit))
				if err != nil {
					b.Fatal(err)
				}
				size := 0
				for _, v := range res.Variants() {
					size += len(v.Vertices)
				}
				growth = 100 * float64(size-closure) / float64(closure)
			}
			b.ReportMetric(growth, "%extra")
		})
	}
}

// BenchmarkFig20Scatter times the per-procedure size computation for the
// scatter plot (dominated by the two slicers).
func BenchmarkFig20Scatter(b *testing.B) {
	cfg := benchConfig("schedule")
	prog := workload.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sdg.MustBuild(prog)
		crit := printfSites(g)[0]
		mres := mono.Binkley(g, slice.ComputeSummaries(g), crit)
		_ = mres.PerProcSizes()
		if _, err := core.Specialize(g, configsFor(crit)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig21Times compares the two slicers' end-to-end times.
func BenchmarkFig21Times(b *testing.B) {
	cfg := benchConfig("print_tokens2")
	prog := workload.Generate(cfg)
	b.Run("mono", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sdg.MustBuild(prog)
			crit := printfSites(g)[0]
			res := mono.Binkley(g, slice.ComputeSummaries(g), crit)
			if _, err := emit.Program(g, res.Variants()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("poly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sdg.MustBuild(prog)
			crit := printfSites(g)[0]
			res, err := core.Specialize(g, configsFor(crit))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := emit.Program(g, res.Variants()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig22Memory: run with -benchmem; allocated bytes/op is the
// memory metric the table reports.
func BenchmarkFig22Memory(b *testing.B) {
	cfg := benchConfig("schedule2")
	prog := workload.Generate(cfg)
	g := sdg.MustBuild(prog)
	crit := printfSites(g)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Specialize(g, configsFor(crit)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeterminizeShrink times the automaton pipeline step the §4.2
// note is about and reports the shrink percentage.
func BenchmarkDeterminizeShrink(b *testing.B) {
	cfg := benchConfig("replace")
	g := sdg.MustBuild(workload.Generate(cfg))
	crit := printfSites(g)[0]
	res, err := core.Specialize(g, configsFor(crit))
	if err != nil {
		b.Fatal(err)
	}
	a1 := res.A1
	var after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after = a1.Reverse().Determinize().NumStates()
	}
	shrink := 100 * float64(a1.NumStates()-after) / float64(a1.NumStates())
	b.ReportMetric(shrink, "shrink%")
}

// BenchmarkWcSpeedup emits the wc slice and measures interpreter steps,
// reporting the slice's share of the original's work (§5: paper 32.5%).
func BenchmarkWcSpeedup(b *testing.B) {
	prog := workload.WcProgram()
	input := workload.WcInput(strings.Repeat("a few words here\n", 50))
	orig, err := interp.Run(prog, interp.Options{Input: input})
	if err != nil {
		b.Fatal(err)
	}
	g := sdg.MustBuild(prog)
	crit := configsFor(printfSites(g)[0])
	var pct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Specialize(g, crit)
		if err != nil {
			b.Fatal(err)
		}
		out, err := emit.Program(g, res.Variants())
		if err != nil {
			b.Fatal(err)
		}
		run, err := interp.Run(out, interp.Options{Input: input})
		if err != nil {
			b.Fatal(err)
		}
		pct = 100 * float64(run.Steps) / float64(orig.Steps)
	}
	b.ReportMetric(pct, "%steps")
}

// BenchmarkPrestar isolates the stack-configuration-slicing kernel. The
// encoding and the query are built once, outside the timed loop: the query
// has core.SDGVertices' shape (a criterion vertex, then any stack of call
// sites), and each iteration runs only the saturation on the encoding's
// warm Prestar engine.
func BenchmarkPrestar(b *testing.B) {
	g := sdg.MustBuild(workload.Generate(benchConfig("gzip")))
	enc := core.Encode(g)
	q := fsa.New(enc.PDS.NumLocs)
	final := q.AddState()
	q.SetFinal(final)
	for _, v := range printfSites(g)[0] {
		q.Add(0, enc.VertexSym(v), final)
	}
	for _, s := range g.Sites {
		q.Add(final, enc.SiteSym(s.ID), final)
	}
	b.ReportAllocs()
	for b.Loop() {
		enc.Prestar(q)
	}
}

// BenchmarkSummaryEdges isolates the HRB summary-edge computation the
// monovariant baseline depends on. The computation only reads the graph,
// so one graph serves every iteration.
func BenchmarkSummaryEdges(b *testing.B) {
	g := sdg.MustBuild(workload.Generate(benchConfig("space")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slice.ComputeSummaries(g)
	}
}

// BenchmarkAblationMinimize quantifies the design choice DESIGN.md calls
// out: running the pipeline without minimization still yields a correct
// partition refinement, but a non-minimal one — the metric reports how many
// extra PDG states (specialized procedures) skipping minimize would cost.
func BenchmarkAblationMinimize(b *testing.B) {
	// The metric is usually 0: in practice reverse-determinization alone
	// already yields the minimal partition — the same phenomenon as the
	// paper's §4.2 observation that determinize does not blow up. The
	// bench quantifies the cost of the extra minimize pass against the
	// states it saves.
	cfg := benchConfig("space")
	g := sdg.MustBuild(workload.Generate(cfg))
	crit := narrowCriterion(g)
	res, err := core.Specialize(g, configsFor(crit))
	if err != nil {
		b.Fatal(err)
	}
	a1 := res.A1
	var withoutMin, withMin int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withoutMin = a1.Reverse().Determinize().Reverse().Trim().NumStates()
		withMin = a1.Reverse().Determinize().Minimize().Reverse().Trim().NumStates()
	}
	b.ReportMetric(float64(withoutMin-withMin), "extra-states-without-minimize")
}

// BenchmarkAblationHopcroftVsMoore compares the two minimization
// implementations on slice automata.
func BenchmarkAblationHopcroftVsMoore(b *testing.B) {
	cfg := benchConfig("space")
	g := sdg.MustBuild(workload.Generate(cfg))
	crit := printfSites(g)[0]
	res, err := core.Specialize(g, configsFor(crit))
	if err != nil {
		b.Fatal(err)
	}
	rev := res.A1.Reverse().Determinize()
	b.Run("hopcroft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rev.Minimize()
		}
	})
	b.Run("moore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rev.MinimizeMoore()
		}
	})
}

// BenchmarkAblationSummaryVsPDSClosure compares the two independent
// closure-slice implementations (HRB summary-edge two-phase vs PDS pre*).
func BenchmarkAblationSummaryVsPDSClosure(b *testing.B) {
	cfg := benchConfig("print_tokens")
	prog := workload.Generate(cfg)
	b.Run("hrb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sdg.MustBuild(prog)
			crit := printfSites(g)[0]
			slice.Backward(g, slice.ComputeSummaries(g), crit)
		}
	})
	b.Run("pds", func(b *testing.B) {
		g := sdg.MustBuild(prog)
		crit := printfSites(g)[0]
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ClosureSlice(g, core.SDGVertices(crit)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// printfSites returns one criterion (its actual-ins) per printf in main.
func printfSites(g *sdg.Graph) [][]sdg.VertexID {
	var out [][]sdg.VertexID
	for _, s := range g.Sites {
		if s.Lib && s.Callee == "printf" && g.Procs[s.CallerProc].Name == "main" {
			out = append(out, append([]sdg.VertexID(nil), s.ActualIns...))
		}
	}
	return out
}

// narrowCriterion picks the last printf (a narrow single-global print in
// the generated suites, where partial liveness — and hence specialization —
// actually occurs; the first printf is the everything-live aggregate).
func narrowCriterion(g *sdg.Graph) []sdg.VertexID {
	sites := printfSites(g)
	return sites[len(sites)-1]
}
