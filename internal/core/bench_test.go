package core

import (
	"testing"

	"specslice/internal/fsa"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

var benchFSA *fsa.FSA

// gzipGraph builds the gzip suite's SDG, the graph an engine encodes.
func gzipGraph(b *testing.B) *sdg.Graph {
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name == "gzip" {
			return sdg.MustBuild(workload.Generate(cfg))
		}
	}
	b.Fatal("no gzip suite")
	return nil
}

// BenchmarkReachable times Reachable on a fresh encoding of gzip: what
// every cold build and Advance pays once.
func BenchmarkReachable(b *testing.B) {
	g := gzipGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc := Encode(g)
		b.StartTimer()
		r, err := enc.Reachable()
		if err != nil {
			b.Fatal(err)
		}
		benchFSA = r
	}
}

// BenchmarkMRD times fsa.MRD, Alg. 1 lines 4–8, on the A1 of gzip's
// all-printf Vertices criterion: the automaton chain every polyvariant
// slice runs after Prestar.
func BenchmarkMRD(b *testing.B) {
	g := gzipGraph(b)
	enc := Encode(g)
	q, err := Vertices(PrintfCriterion(g, "")).buildQuery(enc)
	if err != nil {
		b.Fatal(err)
	}
	a1 := PAutomatonToFSA(enc.Prestar(q))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a6, _ := fsa.MRD(a1)
		benchFSA = a6
	}
}

// BenchmarkVerticesQuery times building the query A0 of gzip's all-printf
// Vertices criterion on a warm encoding: what every slice whose criterion
// leaves main pays.
func BenchmarkVerticesQuery(b *testing.B) {
	g := gzipGraph(b)
	enc := Encode(g)
	if _, err := enc.Reachable(); err != nil {
		b.Fatal(err)
	}
	spec := Vertices(PrintfCriterion(g, ""))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := spec.buildQuery(enc)
		if err != nil {
			b.Fatal(err)
		}
		benchFSA = q
	}
}
