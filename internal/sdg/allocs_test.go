package sdg_test

import (
	"runtime"
	"testing"

	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// oneStmtEdit returns base with " + 1" appended to the first assignment of
// its middle procedure (or the next one that has an assignment), parsed
// and canonicalized as the server's ParseNormalized leaves a program.
func oneStmtEdit(base *lang.Program) *lang.Program {
	c := lang.MustParse(lang.Print(base))
	done := false
	for k := range c.Funcs {
		fn := c.Funcs[(len(c.Funcs)/2+k)%len(c.Funcs)]
		lang.WalkStmts(fn.Body, func(s lang.Stmt) {
			if a, ok := s.(*lang.AssignStmt); ok && !done {
				a.RHS = &lang.Binary{Op: "+", X: a.RHS, Y: &lang.IntLit{Value: 1}}
				done = true
			}
		})
		if done {
			break
		}
	}
	p := lang.MustParse(lang.Print(c))
	lang.Canonicalize(p)
	return p
}

// allocated returns the bytes and allocations f makes, averaged over runs.
func allocated(runs int, f func()) (bytes, allocs float64) {
	var m0, m1 runtime.MemStats
	f()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs), float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// TestAdvanceAllocs holds Advance to what an edit changes: for a
// one-statement edit that rebuilds one procedure of gzip and of go,
// Advance may allocate at most 0.65 of the bytes and 0.3 of the
// allocations of a single-worker cold build of the same version.
func TestAdvanceAllocs(t *testing.T) {
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name != "gzip" && cfg.Name != "go" {
			continue
		}
		base := lang.MustParse(lang.Print(workload.Generate(cfg)))
		lang.Canonicalize(base)
		old := sdg.MustBuild(base)
		next := oneStmtEdit(base)
		_, d, err := sdg.Advance(old, next)
		if err != nil {
			t.Fatal(err)
		}
		if d.ProcsRebuilt != 1 {
			t.Fatalf("%s: the edit rebuilt %d procedures, want 1", cfg.Name, d.ProcsRebuilt)
		}
		ab, aa := allocated(5, func() { sdg.Advance(old, next) })
		cb, ca := allocated(5, func() { sdg.MustBuildWorkers(next, 1) })
		t.Logf("%s: Advance %.0f B in %.0f allocations, cold build %.0f B in %.0f (%.2fx, %.2fx)", cfg.Name, ab, aa, cb, ca, ab/cb, aa/ca)
		if ab > 0.65*cb || aa > 0.3*ca {
			t.Errorf("%s: Advance allocates %.2fx the bytes and %.2fx the allocations of a cold build; want at most 0.65x and 0.3x", cfg.Name, ab/cb, aa/ca)
		}
	}
}
