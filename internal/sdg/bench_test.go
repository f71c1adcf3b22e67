package sdg_test

import (
	"runtime"
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

// BenchmarkAdvance times sdg.Advance along a 24-step editor chain per
// Siemens suite; one op walks all 8 chains from their built bases, and
// ns/step and B/step divide by the 192 steps. preserve chains keep every
// procedure's mod/ref interface, the edits edit_stream serves;
// unrestricted chains take every editor step.
func BenchmarkAdvance(b *testing.B) {
	for _, preserve := range []bool{true, false} {
		name := "unrestricted"
		if preserve {
			name = "preserve"
		}
		b.Run(name, func(b *testing.B) {
			var chains [][]*lang.Program
			var bases []*sdg.Graph
			steps := 0
			for si, base := range siemensPrograms(1) {
				chain := editorChain(base, int64(7000+si), chainSteps, preserve)
				chains = append(chains, chain)
				bases = append(bases, sdg.MustBuild(chain[0]))
				steps += len(chain) - 1
			}
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
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
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*steps), "B/step")
		})
	}
}
