package engine

import (
	"runtime"
	"testing"

	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// retainedEngine builds and warms an engine for prog, runs one printf
// slice so its Prestar scratch is allocated, and returns the engine with
// the heap it retains: the live heap after the build, minus the live heap
// before it. The program itself was allocated before, so it is not
// counted; Footprint does not charge it either.
func retainedEngine(t *testing.T, prog *lang.Program) (*Engine, int64) {
	t.Helper()
	var before, after runtime.MemStats
	liveHeap(&before)
	e := New(sdg.MustBuild(prog))
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Specialize(printfSpec(t, e.Graph(), "main")); err != nil {
		t.Fatal(err)
	}
	liveHeap(&after)
	return e, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// liveHeap reads the memory stats after two collections: sync.Pool
// contents survive the first one, so a single collection would leave
// earlier tests' pooled scratch to be freed inside the measured window.
func liveHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// TestFootprintMatchesRetainedHeap holds Engine.Footprint within 25% of
// the heap a warmed engine actually retains, on the 8 Siemens suites and
// gzip, so a byte-budgeted cache evicts by roughly what it frees.
func TestFootprintMatchesRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 9 engines")
	}
	cfgs := workload.SmallBenchmarks()
	for _, c := range workload.Benchmarks() {
		if c.Name == "gzip" {
			cfgs = append(cfgs, c)
		}
	}
	for _, c := range cfgs {
		prog := workload.Generate(c)
		e, retained := retainedEngine(t, prog)
		est := e.Footprint()
		ratio := float64(est) / float64(retained)
		g := e.Graph()
		t.Logf("%-14s vertices %6d edges %6d retained %8d footprint %8d ratio %.2f",
			c.Name, g.NumVertices(), g.NumEdges(), retained, est, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: footprint %d is %.2fx the retained heap %d, want within 25%%", c.Name, est, ratio, retained)
		}
		runtime.KeepAlive(e)
	}
}
