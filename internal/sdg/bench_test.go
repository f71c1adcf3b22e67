package sdg_test

import (
	"testing"

	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// BenchmarkBuild times sdg.Build alone on pre-parsed programs: one op
// builds all 8 Siemens suites (siemens) or gzip. BenchmarkFig17BuildSDG
// includes the parse, so it cannot show the build's own allocations.
func BenchmarkBuild(b *testing.B) {
	cases := []struct {
		name  string
		progs []*lang.Program
	}{
		{"siemens", siemensPrograms(1)},
		{"gzip", []*lang.Program{gzipProgram()}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range c.progs {
					if _, err := sdg.Build(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAdvance times sdg.Advance along a 24-step unrestricted editor
// chain per Siemens suite; one op walks all 8 chains from their built
// bases, and ns/step divides by the 192 steps.
func BenchmarkAdvance(b *testing.B) {
	var chains [][]*lang.Program
	var bases []*sdg.Graph
	steps := 0
	for si, base := range siemensPrograms(1) {
		chain := editorChain(base, int64(7000+si), chainSteps, false)
		chains = append(chains, chain)
		bases = append(bases, sdg.MustBuild(chain[0]))
		steps += len(chain) - 1
	}
	b.ReportAllocs()
	for b.Loop() {
		for ci, chain := range chains {
			g := bases[ci]
			for _, next := range chain[1:] {
				var err error
				if g, _, err = sdg.Advance(g, next); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
