// Package mono implements the two monovariant executable-slicing baselines
// the paper compares against (§5): Binkley's algorithm (closure slice plus
// iteratively added-back missing actual parameters and their backward
// slices) and a Weiser-style context-insensitive slice with atomic
// call-sites. Both produce at most one copy of each procedure, and both are
// complete but not sound in the paper's terminology — they can include
// elements outside the closure slice.
package mono

import (
	"specslice/internal/core"
	"specslice/internal/sdg"
	"specslice/internal/slice"
)

// Result is a monovariant executable slice.
type Result struct {
	Source *sdg.Graph
	// Slice is the final executable vertex set.
	Slice slice.VSet
	// Closure is the HRB closure slice Binkley's algorithm started from
	// (nil for Weiser).
	Closure slice.VSet
	// Extras is Slice − Closure: elements Binkley's algorithm added back to
	// repair parameter mismatches (the paper's "7.1% worth of extraneous
	// elements"); nil for Weiser.
	Extras slice.VSet
	// Rounds is the number of mismatch-repair iterations Binkley's
	// algorithm performed (1 means no mismatches existed).
	Rounds int
}

// Binkley computes a monovariant executable slice per Binkley (1993):
// compute the closure slice; while some call-site in the slice calls a
// procedure whose in-slice formal has no in-slice actual at that site, add
// the missing actual and everything in its backward slice; repeat.
// sums must be g's summary edges (slice.ComputeSummaries).
func Binkley(g *sdg.Graph, sums *slice.Summaries, criterion []sdg.VertexID) *Result {
	w := slice.Backward(g, sums, criterion)
	res := &Result{Source: g, Closure: w.Clone()}

	for {
		res.Rounds++
		var missing []sdg.VertexID
		for _, site := range g.Sites {
			if site.Lib || !w[site.CallVertex] {
				continue
			}
			callee := g.Procs[g.ProcByName[site.Callee]]
			for _, fi := range callee.FormalIns {
				if !w[fi] {
					continue
				}
				ai, ok := actualFor(g, site, fi)
				if ok && !w[ai] {
					missing = append(missing, ai)
				}
			}
		}
		if len(missing) == 0 {
			break
		}
		add := slice.Backward(g, sums, missing)
		for v := range add {
			w[v] = true
		}
	}
	res.Slice = w
	res.Extras = slice.VSet{}
	for v := range w {
		if !res.Closure[v] {
			res.Extras[v] = true
		}
	}
	return res
}

// Weiser computes the Weiser-style executable slice baseline. It needs no
// summary edges and leaves Closure and Extras nil.
func Weiser(g *sdg.Graph, criterion []sdg.VertexID) *Result {
	return &Result{Source: g, Slice: slice.Weiser(g, criterion), Rounds: 1}
}

func actualFor(g *sdg.Graph, site *sdg.Site, fiID sdg.VertexID) (sdg.VertexID, bool) {
	fi := &g.Vertices[fiID]
	for _, aiID := range site.ActualIns {
		ai := &g.Vertices[aiID]
		if fi.Param != sdg.NoParam {
			if ai.Param == fi.Param {
				return aiID, true
			}
		} else if ai.Param == sdg.NoParam && ai.Var == fi.Var {
			return aiID, true
		}
	}
	return 0, false
}

// Variants packages the monovariant slice for program emission: one variant
// per procedure intersecting the slice, keeping original names, in the
// list form core.Result.Variants builds.
func (r *Result) Variants() []core.ProcVariant {
	g := r.Source
	nc := 0
	for _, site := range g.Sites {
		if !site.Lib && r.Slice[site.CallVertex] {
			nc++
		}
	}
	verts := make([]sdg.VertexID, 0, len(r.Slice))
	calls := make([]core.CallTarget, 0, nc)
	var out []core.ProcVariant
	for _, p := range g.Procs {
		v0, c0 := len(verts), len(calls)
		for _, v := range p.Vertices {
			if r.Slice[v] {
				verts = append(verts, v)
			}
		}
		if len(verts) == v0 {
			continue
		}
		for _, sid := range p.Sites {
			if site := g.Sites[sid]; !site.Lib && r.Slice[site.CallVertex] {
				calls = append(calls, core.CallTarget{Site: sid, Callee: site.Callee})
			}
		}
		out = append(out, core.ProcVariant{
			Orig:     p,
			Name:     p.Name,
			Vertices: verts[v0:len(verts):len(verts)],
			Calls:    calls[c0:len(calls):len(calls)],
		})
	}
	return out
}

// PerProcSizes returns, for each procedure with vertices in the slice, the
// number of sliced vertices (paper Fig. 20's y-axis data).
func (r *Result) PerProcSizes() map[string]int {
	out := map[string]int{}
	for v := range r.Slice {
		out[r.Source.Procs[r.Source.Vertices[v].Proc].Name]++
	}
	return out
}
