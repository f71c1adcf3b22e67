package specslice_test

// Metamorphic properties of the slicer — relations that must hold between
// runs, with no reference output needed:
//
//   - Idempotence: re-slicing a specialized program w.r.t. the same
//     criterion is a fixed point, byte-identical at the source level. A
//     specialization slice is minimal (paper Thm. 4.9), so slicing it again
//     can neither drop nor replicate anything.
//   - Containment: the monovariant executable slice always contains the
//     polyvariant slice's elements (the paper's headline precision claim —
//     monovariant algorithms over-approximate to stay executable).
//
// Both run across the adversarial corpus (pipeline_test.go) and generated
// workload programs, reusing the oracle's deterministic criterion draws.

import (
	"math/rand"
	"strings"
	"testing"

	"specslice"
	"specslice/internal/emit"
	"specslice/internal/engine"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// metamorphicSources returns named program sources: the corpus plus
// generated suites.
func metamorphicSources() map[string]string {
	out := map[string]string{}
	for name, src := range corpus {
		out[name] = src
	}
	for i, cfg := range oracleConfigs(6) {
		cfg.Name = "gen"
		out[cfg.Name+string(rune('a'+i))] = workload.GenerateSource(cfg)
	}
	return out
}

func TestMetamorphicResliceIdempotent(t *testing.T) {
	for name, src := range metamorphicSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			prog := specslice.MustParse(src)
			g, err := prog.SDG()
			if err != nil {
				t.Fatal(err)
			}
			sl, err := g.SpecializationSlice(g.PrintfCriterion(""))
			if err != nil {
				t.Fatal(err)
			}
			out1, err := sl.Program()
			if err != nil {
				t.Fatal(err)
			}
			src1 := out1.Source()

			prog2, err := specslice.Parse(src1)
			if err != nil {
				t.Fatalf("slice does not reparse: %v\n%s", err, src1)
			}
			g2, err := prog2.SDG()
			if err != nil {
				t.Fatal(err)
			}
			sl2, err := g2.SpecializationSlice(g2.PrintfCriterion(""))
			if err != nil {
				t.Fatalf("reslice: %v\n%s", err, src1)
			}
			out2, err := sl2.Program()
			if err != nil {
				t.Fatal(err)
			}
			if src2 := out2.Source(); src2 != src1 {
				t.Errorf("re-slicing is not idempotent:\n--- first slice ---\n%s\n--- second slice ---\n%s", src1, src2)
			}
		})
	}
}

func TestMetamorphicMonoContainsPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0CEA))
	pairs := 0
	for name, src := range metamorphicSources() {
		prog := lang.MustParse(src)
		g := sdg.MustBuild(prog)
		eng := engine.New(g)
		for _, c := range drawCriteria(g, rng, 8) {
			res, err := eng.Specialize(c.spec)
			if err != nil {
				continue // unreachable criterion etc.; the oracle counts these
			}
			poly := map[sdg.VertexID]bool{}
			for _, v := range res.Variants() {
				for _, id := range v.Vertices {
					poly[id] = true
				}
			}
			mono := map[sdg.VertexID]bool{}
			for _, v := range eng.Binkley(c.mono).Variants() {
				for _, id := range v.Vertices {
					mono[id] = true
				}
			}
			if len(mono) < len(poly) {
				t.Errorf("%s %s: mono slice has %d elements, poly %d", name, c.name, len(mono), len(poly))
			}
			for id := range poly {
				if !mono[id] {
					t.Errorf("%s %s: poly element %s missing from mono slice", name, c.name, g.VertexString(id))
				}
			}
			pairs++
			// Containment must survive emission too: the mono program's
			// procedures each exist, so emit cannot fail on a superset.
			if pairs%5 == 0 {
				if text, err := emit.Source(g, eng.Binkley(c.mono).Variants()); err != nil {
					t.Errorf("%s %s: mono emit: %v", name, c.name, err)
				} else if !strings.Contains(text, "main(") {
					t.Errorf("%s %s: mono emit lost main:\n%s", name, c.name, text)
				}
			}
		}
	}
	if pairs < 50 {
		t.Errorf("only %d containment pairs checked, want >= 50", pairs)
	}
	t.Logf("containment: %d pairs", pairs)
}
