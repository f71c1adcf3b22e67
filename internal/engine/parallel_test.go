package engine

import (
	"fmt"
	"reflect"
	"testing"

	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestParallelBuildEncodeIdentity is the serving-level form of the
// sequential-vs-parallel guarantee: a full engine built over
// sdg.BuildWorkers at 1 and at 4 workers must produce byte-identical
// analysis state — graphs with the same numbering, the same summary
// edges, and a PDS encoding with the same rule list, rule order, and
// formal-out control locations — on generated workloads including the
// recursive gzip suite. Any divergence here would leak into automata,
// caches, and emitted slices; run under -race in CI it also exercises the
// body/mod-ref worker pools.
func TestParallelBuildEncodeIdentity(t *testing.T) {
	cfgs := []workload.BenchConfig{
		workload.SmallBenchmarks()[0], // tcas
		{Name: "par-mix", Procs: 14, TargetVertices: 700, CallSites: 60, Slices: 4, Seed: 424, Recursive: true},
	}
	if !testing.Short() {
		for _, c := range workload.Benchmarks() {
			if c.Name == "gzip" {
				cfgs = append(cfgs, c)
			}
		}
	}
	for _, cfg := range cfgs {
		prog := workload.Generate(cfg)
		g1, err := sdg.BuildWorkers(prog, 1)
		if err != nil {
			t.Fatalf("%s: sequential build: %v", cfg.Name, err)
		}
		g4, err := sdg.BuildWorkers(prog, 4)
		if err != nil {
			t.Fatalf("%s: parallel build: %v", cfg.Name, err)
		}
		if err := sameGraph(g1, g4); err != nil {
			t.Fatalf("%s: graphs differ between 1 and 4 workers: %v", cfg.Name, err)
		}

		e1, e4 := New(g1), New(g4)
		enc1, enc4 := e1.Encoding(), e4.Encoding()
		if enc1.PDS.NumLocs != enc4.PDS.NumLocs {
			t.Fatalf("%s: NumLocs %d vs %d", cfg.Name, enc1.PDS.NumLocs, enc4.PDS.NumLocs)
		}
		if len(enc1.PDS.Rules) != len(enc4.PDS.Rules) {
			t.Fatalf("%s: rule count %d vs %d", cfg.Name, len(enc1.PDS.Rules), len(enc4.PDS.Rules))
		}
		for i := range enc1.PDS.Rules {
			if !reflect.DeepEqual(enc1.PDS.Rules[i], enc4.PDS.Rules[i]) {
				t.Fatalf("%s: rule %d differs: %v vs %v", cfg.Name, i, enc1.PDS.Rules[i], enc4.PDS.Rules[i])
			}
		}
		if !reflect.DeepEqual(enc1.LocOfFO, enc4.LocOfFO) {
			t.Fatalf("%s: formal-out control locations differ", cfg.Name)
		}
		if !reflect.DeepEqual(e1.EnsureSummaryEdges(), e4.EnsureSummaryEdges()) {
			t.Fatalf("%s: summary edges differ: %d vs %d", cfg.Name, numSummaries(e1), numSummaries(e4))
		}
	}
}

// sameGraph requires identical numbering and structure.
func sameGraph(a, b *sdg.Graph) error {
	if a.NumVertices() != b.NumVertices() || len(a.Sites) != len(b.Sites) || len(a.Procs) != len(b.Procs) {
		return fmt.Errorf("element counts differ")
	}
	for i := range a.Vertices {
		va, vb := &a.Vertices[i], &b.Vertices[i]
		if va.Kind != vb.Kind || va.Proc != vb.Proc || va.Site != vb.Site ||
			va.Param != vb.Param || va.Var != vb.Var || va.IsReturn != vb.IsReturn ||
			a.Label(sdg.VertexID(i)) != b.Label(sdg.VertexID(i)) {
			return fmt.Errorf("vertex %d differs: %+v vs %+v", i, *va, *vb)
		}
	}
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.Callee != sb.Callee || sa.Lib != sb.Lib || sa.CallerProc != sb.CallerProc ||
			sa.CallVertex != sb.CallVertex ||
			!reflect.DeepEqual(sa.ActualIns, sb.ActualIns) || !reflect.DeepEqual(sa.ActualOuts, sb.ActualOuts) {
			return fmt.Errorf("site %d differs", i)
		}
	}
	for i := range a.Procs {
		pa, pb := a.Procs[i], b.Procs[i]
		if pa.Name != pb.Name || pa.Entry != pb.Entry ||
			!reflect.DeepEqual(pa.FormalIns, pb.FormalIns) || !reflect.DeepEqual(pa.FormalOuts, pb.FormalOuts) ||
			!reflect.DeepEqual(pa.Vertices, pb.Vertices) || !reflect.DeepEqual(pa.Sites, pb.Sites) {
			return fmt.Errorf("proc %d (%s) differs", i, pa.Name)
		}
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return fmt.Errorf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	seen := make(map[sdg.Edge]bool, len(ea))
	for _, e := range ea {
		seen[e] = true
	}
	for _, e := range eb {
		if !seen[e] {
			return fmt.Errorf("edge %+v only in parallel build", e)
		}
	}
	return nil
}
