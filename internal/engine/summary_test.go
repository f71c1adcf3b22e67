package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// binkleyOutcome renders e's Binkley slice of criterion as comparable
// bytes: the emitted source, or the fact that emission refused (e.g. the
// slice excludes main).
func binkleyOutcome(e *Engine, criterion []sdg.VertexID) string {
	src, err := emit.Source(e.Graph(), e.Binkley(criterion).Variants())
	if err != nil {
		return "emit error"
	}
	return src
}

// numSummaries counts e's summary edges.
func numSummaries(e *Engine) int {
	n := 0
	for v := range e.g.Vertices {
		n += len(e.EnsureSummaryEdges().Into(sdg.VertexID(v)))
	}
	return n
}

// polyOutcome is binkleyOutcome for the polyvariant slice of spec.
func polyOutcome(e *Engine, spec core.CriterionSpec) string {
	res, err := e.Specialize(spec)
	if err != nil {
		return "error: " + err.Error()
	}
	src, err := emit.Source(e.Graph(), res.Variants())
	if err != nil {
		return "emit error"
	}
	return src
}

// TestSummariesAgreeAcrossBuildPaths holds the lazily computed HRB
// summaries to one answer per program version, however the engine got its
// graph: built cold or advanced through an editor chain. On the 8
// Siemens-sized suites both engines must compute identical summaries and
// emit byte-identical Binkley slices.
func TestSummariesAgreeAcrossBuildPaths(t *testing.T) {
	steps, randomCrits := 4, 12
	if testing.Short() {
		steps, randomCrits = 2, 4
	}
	for _, cfg := range workload.SmallBenchmarks() {
		ed := workload.NewEditor(workload.Generate(cfg), cfg.Seed)
		adv := New(sdg.MustBuild(ed.Program()))
		for i := 0; i < steps; i++ {
			ed.Step()
			next, _, err := adv.Advance(ed.Program())
			if err != nil {
				t.Fatalf("%s step %d: advance: %v\nops: %v", cfg.Name, i, err, ed.Ops)
			}
			adv = next
		}
		cold := New(sdg.MustBuild(lang.MustParse(ed.Source())))
		if numSummaries(cold) == 0 {
			t.Fatalf("%s: cold engine computed no summary edges", cfg.Name)
		}
		if !reflect.DeepEqual(adv.EnsureSummaryEdges(), cold.EnsureSummaryEdges()) {
			t.Errorf("%s: advanced summaries differ from cold (%d vs %d edges)\nops: %v",
				cfg.Name, numSummaries(adv), numSummaries(cold), ed.Ops)
		}

		crits := [][]sdg.VertexID{core.PrintfCriterion(cold.Graph(), "")}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < randomCrits; i++ {
			crits = append(crits, []sdg.VertexID{sdg.VertexID(rng.Intn(cold.Graph().NumVertices()))})
		}
		for _, c := range crits {
			if got, want := binkleyOutcome(adv, c), binkleyOutcome(cold, c); got != want {
				t.Fatalf("%s: advanced Binkley slice of %v differs from cold:\n--- advanced\n%s\n--- cold\n%s",
					cfg.Name, c, got, want)
			}
		}
	}
}

// TestPolyDoesNotComputeSummaries pins when the summary fixpoint runs. An
// engine that serves only polyvariant and feature-removal requests — warmed,
// charged by a cache, advanced — never computes summaries; the
// first monovariant or closure (ClosureSliceSize's Backward) request
// computes them once, and later requests reuse them. A cold engine racing
// its first monovariant request against polyvariant requests and Advance
// must agree with a sequential run. Run under -race.
func TestPolyDoesNotComputeSummaries(t *testing.T) {
	src := workload.Fig16Source
	edited := lang.MustParse(strings.Replace(src, "int main() {", "int main() {\n  int extra = 2;\n  extra = extra * 3;", 1))

	eng := buildEngine(t, src)
	if err := eng.Warm(); err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	crit := core.PrintfCriterion(g, "main")
	resps, _ := eng.SliceAll([]Request{
		{Mode: ModePoly, Spec: printfSpec(t, g, "main")},
		{Mode: ModeFeature, Vertices: crit},
	}, BatchOptions{Workers: 2})
	for _, r := range resps {
		if r.Err != nil {
			t.Fatalf("%v request: %v", r.Mode, r.Err)
		}
	}
	eng.Footprint()
	next, _, err := eng.Advance(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Warm(); err != nil {
		t.Fatal(err)
	}
	if eng.sums != nil || next.sums != nil {
		t.Fatal("poly, feature, warm, footprint or advance computed summary edges")
	}

	for _, first := range []string{"mono", "closure"} {
		e := buildEngine(t, src)
		if first == "mono" {
			e.Binkley(crit)
		} else {
			e.Backward(crit)
		}
		s := e.sums
		if s == nil {
			t.Fatalf("first %s request did not compute summary edges", first)
		}
		e.Binkley(crit)
		e.Backward(crit)
		e.SliceAll([]Request{{Mode: ModeMono, Vertices: crit}, {Mode: ModeWeiser, Vertices: crit}}, BatchOptions{})
		if e.sums != s {
			t.Fatalf("summary edges recomputed after the first %s request", first)
		}
	}

	// The sequential answers, from one engine per program version.
	seq := buildEngine(t, src)
	spec := printfSpec(t, g, "main")
	wantMono, wantPoly := binkleyOutcome(seq, crit), polyOutcome(seq, spec)
	wantClosure := fmt.Sprint(seq.Backward(crit).Sorted())
	seqNext, _, err := seq.Advance(edited)
	if err != nil {
		t.Fatal(err)
	}
	nextCrit, nextSpec := core.PrintfCriterion(seqNext.Graph(), "main"), printfSpec(t, seqNext.Graph(), "main")
	wantNextMono, wantNextPoly := binkleyOutcome(seqNext, nextCrit), polyOutcome(seqNext, nextSpec)
	for _, want := range []string{wantMono, wantPoly, wantNextMono, wantNextPoly} {
		if !strings.Contains(want, " main() {") {
			t.Fatalf("sequential slice has no main:\n%s", want)
		}
	}

	for round := 0; round < 3; round++ {
		e := buildEngine(t, src)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch i % 4 {
				case 0:
					if got := binkleyOutcome(e, crit); got != wantMono {
						t.Errorf("concurrent mono slice differs:\n%s\nwant\n%s", got, wantMono)
					}
				case 1:
					if got := polyOutcome(e, spec); got != wantPoly {
						t.Errorf("concurrent poly slice differs:\n%s\nwant\n%s", got, wantPoly)
					}
				case 2:
					n, _, err := e.Advance(edited)
					if err != nil {
						t.Error(err)
						return
					}
					if got := polyOutcome(n, nextSpec); got != wantNextPoly {
						t.Errorf("advanced poly slice differs:\n%s\nwant\n%s", got, wantNextPoly)
					}
					if got := binkleyOutcome(n, nextCrit); got != wantNextMono {
						t.Errorf("advanced mono slice differs:\n%s\nwant\n%s", got, wantNextMono)
					}
				case 3:
					if got := fmt.Sprint(e.Backward(crit).Sorted()); got != wantClosure {
						t.Errorf("concurrent closure slice differs: %s, want %s", got, wantClosure)
					}
				}
			}(i)
		}
		wg.Wait()
	}
}
