package engine

import (
	"math/rand"
	"testing"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestSnapshotServesIdenticalSlices is the codec's end-to-end soundness
// gate (the store's recovery property leans on it): an engine restored
// from a snapshot must be indistinguishable from the cold-built original
// on 100+ random criteria — byte-identical polyvariant and monovariant
// slices, or the identical error.
func TestSnapshotServesIdenticalSlices(t *testing.T) {
	cfg := workload.Benchmarks()[0] // tcas-shaped suite
	prog := workload.Generate(cfg)
	cold := New(sdg.MustBuild(prog))
	data, err := cold.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	warm, err := FromSnapshot(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := warm.Warm(); err != nil {
		t.Fatalf("warm restored engine: %v", err)
	}

	n := cold.Graph().NumVertices()
	rng := rand.New(rand.NewSource(42))
	criteria := 120
	if testing.Short() {
		criteria = 25
	}
	for i := 0; i < criteria; i++ {
		v := sdg.VertexID(rng.Intn(n))
		spec := core.Configs{{Vertex: v}}

		wantRes, wantErr := cold.Specialize(spec)
		gotRes, gotErr := warm.Specialize(spec)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("criterion %v: poly error mismatch: cold=%v disk=%v", v, wantErr, gotErr)
		}
		if wantErr == nil {
			compareEmit(t, "poly", v, cold, warm, wantRes.Variants(), gotRes.Variants())
		}

		wantMono := cold.Binkley([]sdg.VertexID{v})
		gotMono := warm.Binkley([]sdg.VertexID{v})
		compareEmit(t, "mono", v, cold, warm, wantMono.Variants(), gotMono.Variants())
	}

	// A snapshot taken after the fixpoint marks its summaries complete;
	// restoring must not re-run the fixpoint (the mark round-trips).
	if !warm.Graph().SummariesComputed() {
		t.Fatal("restored graph lost the summary-edge mark")
	}
}

// compareEmit renders both engines' variants and requires the identical
// outcome — the same source bytes, or the same emit error (e.g. "no main
// variant" when the criterion's slice excludes main on both sides).
func compareEmit(t *testing.T, mode string, v sdg.VertexID, cold, warm *Engine, wantVars, gotVars []core.ProcVariant) {
	t.Helper()
	wantSrc, err1 := emit.Source(cold.Graph(), wantVars)
	gotSrc, err2 := emit.Source(warm.Graph(), gotVars)
	// Error text may embed source positions, which legitimately differ: the
	// restored engine's program is re-parsed from normalized source. Only
	// the outcome must match.
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("criterion %v: %s emit outcome differs: cold=%v disk=%v", v, mode, err1, err2)
	}
	if wantSrc != gotSrc {
		t.Fatalf("criterion %v: %s slice differs:\ncold:\n%s\ndisk:\n%s", v, mode, wantSrc, gotSrc)
	}
}

// TestSnapshotOfAdvancedEngine covers the version-chain path the store's
// write-behind uses: an engine produced by Advance must snapshot and
// restore like a cold-built one.
func TestSnapshotOfAdvancedEngine(t *testing.T) {
	base := buildEngine(t, workload.Fig16Source)
	ed := workload.NewEditor(base.Graph().Prog, 9)
	ed.Step()
	edited := ed.Program()
	adv, _, err := base.Advance(edited)
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	data, err := adv.Snapshot()
	if err != nil {
		t.Fatalf("snapshot advanced engine: %v", err)
	}
	restored, err := FromSnapshot(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	wantRes, err := adv.Specialize(printfSpec(t, adv.Graph(), "main"))
	if err != nil {
		t.Fatalf("specialize advanced: %v", err)
	}
	gotRes, err := restored.Specialize(printfSpec(t, restored.Graph(), "main"))
	if err != nil {
		t.Fatalf("specialize restored: %v", err)
	}
	wantSrc, _ := emit.Source(adv.Graph(), wantRes.Variants())
	gotSrc, _ := emit.Source(restored.Graph(), gotRes.Variants())
	if wantSrc != gotSrc {
		t.Fatalf("restored advanced engine slices differ:\nlive:\n%s\ndisk:\n%s", wantSrc, gotSrc)
	}
}
