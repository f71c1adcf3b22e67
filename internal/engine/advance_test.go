package engine

import (
	"strings"
	"sync"
	"testing"

	"specslice/internal/emit"
	"specslice/internal/lang"
	"specslice/internal/workload"
)

// polySource slices eng at the printf criterion in main and emits source.
func polySource(t *testing.T, eng *Engine) string {
	t.Helper()
	res, err := eng.Specialize(printfSpec(t, eng.Graph(), "main"))
	if err != nil {
		t.Fatalf("specialize: %v", err)
	}
	src, err := emit.Source(eng.Graph(), res.Variants())
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	return src
}

func TestAdvanceChainAcrossEdits(t *testing.T) {
	// Advance repeatedly (the version-chain pattern the server uses) and
	// check every link against a from-scratch engine.
	src := workload.Fig16Source
	cur := buildEngine(t, src)
	edits := []func(string) string{
		func(s string) string { return strings.Replace(s, "printf", "printf", 1) }, // no-op
		func(s string) string {
			return strings.Replace(s, "int main() {", "int main() {\n  int drift = 1;\n  drift = drift + 1;", 1)
		},
		func(s string) string {
			return strings.Replace(s, "int main() {", "int helper9(int z) {\n  return z + 9;\n}\n\nint main() {", 1)
		},
	}
	for i, edit := range edits {
		src = edit(src)
		prog := lang.MustParse(src)
		next, _, err := cur.Advance(prog)
		if err != nil {
			t.Fatalf("edit %d: advance: %v", i, err)
		}
		scratch := buildEngine(t, src)
		if got, want := polySource(t, next), polySource(t, scratch); got != want {
			t.Fatalf("edit %d: advanced slice differs from scratch:\n--- advanced\n%s\n--- scratch\n%s", i, got, want)
		}
		cur = next
	}
}

// TestFootprintIncludesPrestarScratch pins the byte-budget fix: the
// engine's footprint must cover the Prestar saturation scratch retained
// between batches, charging the one-arena provision before any query has
// run so a byte-budgeted LRU cannot under-evict warm engines.
func TestFootprintIncludesPrestarScratch(t *testing.T) {
	eng := buildEngine(t, workload.Fig16Source)
	enc := eng.Encoding()
	if sb := enc.ScratchBytes(); sb != 0 {
		t.Fatalf("scratch bytes before any query = %d, want 0", sb)
	}
	prov := enc.ScratchProvision()
	if prov <= 0 {
		t.Fatalf("scratch provision = %d, want > 0", prov)
	}
	f0 := eng.Footprint()

	if _, err := eng.Specialize(printfSpec(t, eng.Graph(), "main")); err != nil {
		t.Fatal(err)
	}
	sb := enc.ScratchBytes()
	if sb <= 0 {
		t.Fatal("no Prestar scratch accounted after a query — the pooled arena is invisible to Footprint")
	}
	f1 := eng.Footprint()
	if f1 < f0 {
		t.Errorf("footprint shrank after a query: %d -> %d", f0, f1)
	}
	if want := max(sb, prov) - prov; f1-f0 != want {
		t.Errorf("footprint delta = %d, want %d (scratch %d, provision %d)", f1-f0, want, sb, prov)
	}
}

// TestAdvanceWhileServing advances an engine while other goroutines slice
// through it — the server's hot pattern. Run under -race.
func TestAdvanceWhileServing(t *testing.T) {
	base := workload.Fig16Source
	eng := buildEngine(t, base)
	edited := strings.Replace(base, "int main() {", "int main() {\n  int extra = 2;\n  extra = extra * 3;", 1)
	prog := lang.MustParse(edited)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := eng.Specialize(printfSpec(t, eng.Graph(), "main")); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, _, err := eng.Advance(prog)
			if err != nil {
				t.Error(err)
				return
			}
			if err := next.Warm(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
