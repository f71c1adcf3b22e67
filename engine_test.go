package specslice_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"specslice"
	"specslice/internal/workload"
)

// fig16Lines returns the line numbers of statements matching each needle in
// Fig. 16's source, for building distinct line criteria.
func fig16Lines(t *testing.T, needles ...string) []int {
	t.Helper()
	lines := make([]int, len(needles))
	for i, needle := range needles {
		for ln, text := range strings.Split(workload.Fig16Source, "\n") {
			if strings.Contains(text, needle) {
				lines[i] = ln + 1
				break
			}
		}
		if lines[i] == 0 {
			t.Fatalf("needle %q not in Fig16Source", needle)
		}
	}
	return lines
}

// TestEngineConcurrentSlicing hammers one shared engine from many
// goroutines with different criteria and modes; run it under -race to
// verify the engine's shared caches (encoding, reachable configurations,
// summary edges) are safe for concurrent use.
func TestEngineConcurrentSlicing(t *testing.T) {
	prog := specslice.MustParse(workload.Fig16Source)
	eng, err := prog.Engine()
	if err != nil {
		t.Fatal(err)
	}
	g := eng.SDG()
	lines := fig16Lines(t, "sum = add(sum, i)", "prod = mult(prod, i)", "i = add(i, 1)")

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			crits := []specslice.Criterion{
				g.PrintfCriterion("main"),
				g.LineCriterion(lines[w%len(lines)]),
			}
			for _, c := range crits {
				if _, err := eng.SpecializationSlice(c); err != nil {
					errs <- fmt.Errorf("worker %d poly: %w", w, err)
				}
				if _, err := eng.MonovariantSlice(c); err != nil {
					errs <- fmt.Errorf("worker %d mono: %w", w, err)
				}
			}
			if _, err := eng.WeiserSlice(g.PrintfCriterion("main")); err != nil {
				errs <- fmt.Errorf("worker %d weiser: %w", w, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineColdMonoPolyRace targets the worst-case interleaving on a
// fresh (cold, unwarmed) engine: the very first monovariant request runs
// the summary-edge fixpoint while a polyvariant request builds the
// encoding from the same graph. Run under -race: both only read the graph,
// and each fills its own once-guarded cache.
func TestEngineColdMonoPolyRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		eng, err := specslice.MustParse(workload.Fig16Source).Engine()
		if err != nil {
			t.Fatal(err)
		}
		g := eng.SDG()
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := eng.MonovariantSlice(g.PrintfCriterion("main")); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := eng.SpecializationSlice(g.PrintfCriterion("main")); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestEngineWarmMatchesOneShot checks that slices served from a warmed,
// reused engine are identical to one-shot slices of a fresh SDG.
func TestEngineWarmMatchesOneShot(t *testing.T) {
	eng, err := specslice.MustParse(workload.Fig1Source).Engine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.SpecializationSlice(eng.SDG().PrintfCriterion("main"))
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := specslice.MustParse(workload.Fig1Source).SDG()
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := fresh.SpecializationSlice(fresh.PrintfCriterion("main"))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(warm.VariantCounts(), oneShot.VariantCounts()) {
		t.Errorf("variant counts differ: warm %v, one-shot %v", warm.VariantCounts(), oneShot.VariantCounts())
	}
	wp, err := warm.Program()
	if err != nil {
		t.Fatal(err)
	}
	op, err := oneShot.Program()
	if err != nil {
		t.Fatal(err)
	}
	if wp.Source() != op.Source() {
		t.Errorf("programs differ:\nwarm:\n%s\none-shot:\n%s", wp.Source(), op.Source())
	}
	if err := warm.SelfCheck(); err != nil {
		t.Errorf("self-check on warm slice: %v", err)
	}
}

// TestSliceAllBatch runs a ≥16-request mixed batch through the engine and
// checks per-request results, ordering, and aggregate stats.
func TestSliceAllBatch(t *testing.T) {
	prog := specslice.MustParse(workload.Fig16Source)
	eng, err := prog.Engine()
	if err != nil {
		t.Fatal(err)
	}
	g := eng.SDG()
	lines := fig16Lines(t, "sum = add(sum, i)", "prod = mult(prod, i)", "i = add(i, 1)")

	var reqs []specslice.BatchRequest
	for i := 0; i < 16; i++ {
		var c specslice.Criterion
		if i%2 == 0 {
			c = g.PrintfCriterion("main")
		} else {
			c = g.LineCriterion(lines[i%len(lines)])
		}
		mode := specslice.BatchPoly
		if i%5 == 4 {
			mode = specslice.BatchMono
		}
		reqs = append(reqs, specslice.BatchRequest{Criterion: c, Mode: mode, Label: fmt.Sprintf("req-%d", i)})
	}

	results, stats := eng.SliceAll(reqs, specslice.BatchOptions{Workers: 8})
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	if stats.Requests != 16 || stats.Failed != 0 {
		t.Errorf("stats = %+v, want 16 requests, 0 failed", stats)
	}
	if stats.Wall <= 0 || stats.Work <= 0 {
		t.Errorf("timings not recorded: %+v", stats)
	}
	for i, r := range results {
		if r.Label != fmt.Sprintf("req-%d", i) {
			t.Errorf("result %d out of order: label %s", i, r.Label)
		}
		if r.Err != nil {
			t.Errorf("request %d: %v", i, r.Err)
			continue
		}
		if r.Slice == nil || r.Slice.Vertices() == 0 {
			t.Errorf("request %d: empty slice", i)
		}
		if r.Duration <= 0 {
			t.Errorf("request %d: no duration", i)
		}
		if _, err := r.Slice.Program(); err != nil {
			t.Errorf("request %d: emit: %v", i, err)
		}
	}
}

// TestSliceAllErrorPaths pushes criterion misses (LineCriterion on a
// nonexistent line, StmtCriterion on a nonexistent statement, printf in an
// unknown proc) through the batch API: each failure must land in its own
// result and leave the rest of the batch intact.
func TestSliceAllErrorPaths(t *testing.T) {
	prog := specslice.MustParse(workload.Fig16Source)
	eng, err := prog.Engine()
	if err != nil {
		t.Fatal(err)
	}
	g := eng.SDG()

	reqs := []specslice.BatchRequest{
		{Criterion: g.PrintfCriterion("main"), Label: "good-printf"},
		{Criterion: g.LineCriterion(99999), Label: "bad-line"},
		{Criterion: g.StmtCriterion("main", "no such stmt"), Label: "bad-stmt"},
		{Criterion: g.PrintfCriterion("nosuch"), Label: "bad-proc"},
		{Criterion: g.StmtCriterion("main", "prod = 1"), Mode: specslice.BatchFeature, Label: "good-feature"},
	}
	results, stats := eng.SliceAll(reqs, specslice.BatchOptions{Workers: 4})
	if stats.Failed != 3 {
		t.Errorf("failed = %d, want 3", stats.Failed)
	}
	wantErr := map[string]string{
		"bad-line": "no statement on line",
		"bad-stmt": "no statement",
		"bad-proc": "no printf",
	}
	for _, r := range results {
		if want, bad := wantErr[r.Label]; bad {
			if r.Err == nil || !strings.Contains(r.Err.Error(), want) {
				t.Errorf("%s: err = %v, want %q", r.Label, r.Err, want)
			}
			if r.Slice != nil {
				t.Errorf("%s: failed request has a slice", r.Label)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Label, r.Err)
		}
	}

	// The good feature-removal request must behave like the one-shot API.
	var featureRes *specslice.BatchResult
	for i := range results {
		if results[i].Label == "good-feature" {
			featureRes = &results[i]
		}
	}
	if featureRes == nil || featureRes.Err != nil {
		t.Fatalf("good-feature missing or failed: %+v", featureRes)
	}
	out, err := featureRes.Slice.Program()
	if err != nil {
		t.Fatal(err)
	}
	run, err := out.Run(specslice.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(run.Output, "")
	if !strings.Contains(joined, "55") || strings.Contains(joined, "3628800") {
		t.Errorf("feature removal through batch API: output %v", run.Output)
	}
}

// TestSliceAllEmpty covers the zero-request edge.
func TestSliceAllEmpty(t *testing.T) {
	eng, err := specslice.MustParse(workload.Fig1Source).Engine()
	if err != nil {
		t.Fatal(err)
	}
	results, stats := eng.SliceAll(nil, specslice.BatchOptions{})
	if len(results) != 0 || stats.Requests != 0 || stats.Failed != 0 {
		t.Errorf("empty batch: results=%d stats=%+v", len(results), stats)
	}
}
