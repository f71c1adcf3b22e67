package emit

import (
	"testing"

	"specslice/internal/core"
	"specslice/internal/engine"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

var benchText string

func benchSuite(b *testing.B, name string) *lang.Program {
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name == name {
			return workload.Generate(cfg)
		}
	}
	b.Fatalf("no %s suite", name)
	return nil
}

// BenchmarkEmitSource times what a served slice pays after the readout:
// the variant view (Result.Variants) plus emit.Source, on the all-printf
// polyvariant slice of gzip and of replace. The slice is computed before
// the timer starts.
func BenchmarkEmitSource(b *testing.B) {
	for _, name := range []string{"gzip", "replace"} {
		b.Run(name, func(b *testing.B) {
			g := sdg.MustBuild(benchSuite(b, name))
			res, err := engine.New(g).Specialize(core.Vertices(core.PrintfCriterion(g, "")))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Source(g, res.Variants()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				text, err := Source(g, res.Variants())
				if err != nil {
					b.Fatal(err)
				}
				benchText = text
			}
		})
	}
}

// BenchmarkPrint times lang.Print of gzip's normalized program: what every
// content key and build pays.
func BenchmarkPrint(b *testing.B) {
	prog := benchSuite(b, "gzip")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchText = lang.Print(prog)
	}
}
