package pds_test

import (
	"fmt"
	"testing"

	"specslice/internal/core"
	"specslice/internal/fsa"
	"specslice/internal/pds"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// TestPrestarDifferentialSiemens runs the dense Prestar engine and the
// map-based reference on the paper's PDS encodings of the 8 Siemens
// suites, with an SDGVertices-shaped query (the vertex, then any stack of
// call sites) on every 7th vertex.
func TestPrestarDifferentialSiemens(t *testing.T) {
	queries := 0
	for _, cfg := range workload.SmallBenchmarks() {
		g := sdg.MustBuild(workload.Generate(cfg))
		enc := core.Encode(g)
		dense := pds.NewPrestarEngine(enc.PDS)
		ref := pds.NewReferencePrestarEngine(enc.PDS)
		for v := 0; v < g.NumVertices(); v += 7 {
			q := fsa.New(enc.PDS.NumLocs)
			final := q.AddState()
			q.SetFinal(final)
			q.Add(0, enc.VertexSym(sdg.VertexID(v)), final)
			for _, s := range g.Sites {
				q.Add(final, enc.SiteSym(s.ID), final)
			}
			pds.CheckSameAutomaton(t, fmt.Sprintf("%s vertex %d", cfg.Name, v), dense.Prestar(q), ref.Prestar(q))
			queries++
		}
	}
	t.Logf("%d queries identical", queries)
}
