// Package unroll is a test-only package: it materializes the (truncated)
// unrolled SDG — the explicit configuration graph the paper formalizes
// specialization slicing on — and slices it by plain graph reachability.
// For non-recursive programs the unrolling is finite and exact, giving an
// independent ground truth for the soundness, completeness, and minimality
// (Defn. 2.10) of the automaton-based algorithm; for recursive programs a
// depth bound gives a one-sided check. Nothing outside its own tests uses
// it, so like the fsa, core and dataflow reference implementations it
// lives in _test.go files and ships in no binary.
package unroll

import (
	"fmt"
	"sort"
	"strings"

	"specslice/internal/sdg"
)

// Key identifies a configuration (v, w): vertex plus call-stack, innermost
// site first, rendered as a string for map keys.
type Key string

// MakeKey builds a configuration key.
func MakeKey(v sdg.VertexID, stack []sdg.SiteID) Key {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", v)
	for _, s := range stack {
		fmt.Fprintf(&sb, "|%d", s)
	}
	return Key(sb.String())
}

// Graph is an explicit unrolled SDG, truncated at MaxDepth pending calls.
type Graph struct {
	S        *sdg.Graph
	MaxDepth int
	// Truncated reports whether the depth bound was hit (the unrolling is
	// then a prefix of the true infinite unrolling).
	Truncated bool

	// Contexts lists, per procedure index, the call stacks (innermost
	// first) of its instances.
	Contexts map[int][][]sdg.SiteID

	// preds maps each configuration to its predecessors.
	preds map[Key][]Key
	nodes map[Key]bool
}

// Build explicitly unrolls g up to maxDepth pending calls.
func Build(g *sdg.Graph, maxDepth int) *Graph {
	u := &Graph{
		S: g, MaxDepth: maxDepth,
		Contexts: map[int][][]sdg.SiteID{},
		preds:    map[Key][]Key{},
		nodes:    map[Key]bool{},
	}

	// Enumerate contexts per procedure by walking the call multigraph from
	// main.
	mainIdx := g.ProcByName["main"]
	type item struct {
		proc  int
		stack []sdg.SiteID
	}
	seen := map[string]bool{}
	var queue []item
	push := func(it item) {
		k := fmt.Sprint(it.proc, it.stack)
		if seen[k] {
			return
		}
		seen[k] = true
		u.Contexts[it.proc] = append(u.Contexts[it.proc], it.stack)
		queue = append(queue, it)
	}
	push(item{mainIdx, nil})
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if len(it.stack) >= maxDepth {
			u.Truncated = true
			continue
		}
		for _, sid := range g.Procs[it.proc].Sites {
			site := g.Sites[sid]
			if site.Lib {
				continue
			}
			callee := g.ProcByName[site.Callee]
			stack := append([]sdg.SiteID{sid}, it.stack...)
			push(item{callee, stack})
		}
	}

	// Materialize nodes and edges.
	addEdge := func(from, to Key) {
		u.preds[to] = append(u.preds[to], from)
	}
	for procIdx, stacks := range u.Contexts {
		for _, w := range stacks {
			for _, v := range g.Procs[procIdx].Vertices {
				u.nodes[MakeKey(v, w)] = true
			}
		}
	}
	for procIdx, stacks := range u.Contexts {
		for _, w := range stacks {
			for _, v := range g.Procs[procIdx].Vertices {
				from := MakeKey(v, w)
				for _, e := range g.Out(v) {
					switch e.Kind {
					case sdg.EdgeControl, sdg.EdgeFlow:
						addEdge(from, MakeKey(e.To, w))
					case sdg.EdgeCall, sdg.EdgeParamIn:
						site := g.Vertices[e.From].Site
						wTo := append([]sdg.SiteID{site}, w...)
						to := MakeKey(e.To, wTo)
						if u.nodes[to] {
							addEdge(from, to)
						}
					case sdg.EdgeParamOut:
						// from = (fo, C·w'), to = (ao, w').
						if len(w) == 0 {
							continue
						}
						site := g.Vertices[e.To].Site
						if w[0] != site {
							continue
						}
						addEdge(from, MakeKey(e.To, w[1:]))
					}
				}
			}
		}
	}
	return u
}

// BackwardSlice computes the closure slice of the unrolled graph from the
// given configurations by plain reverse reachability.
func (u *Graph) BackwardSlice(criterion []Key) map[Key]bool {
	out := map[Key]bool{}
	var work []Key
	for _, k := range criterion {
		if u.nodes[k] {
			out[k] = true
			work = append(work, k)
		}
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range u.preds[k] {
			if !out[p] {
				out[p] = true
				work = append(work, p)
			}
		}
	}
	return out
}

// Variant is one procedure instance's portion of a slice.
type Variant struct {
	Proc  int
	Stack []sdg.SiteID
	Elems []sdg.VertexID // sorted
}

// ElemsKey canonically renders the element set.
func (v *Variant) ElemsKey() string {
	var sb strings.Builder
	for _, e := range v.Elems {
		fmt.Fprintf(&sb, "%d,", e)
	}
	return sb.String()
}

// Variants groups a slice's configurations into per-instance variants
// (Defn. 2.6).
func (u *Graph) Variants(slice map[Key]bool) []Variant {
	var out []Variant
	for procIdx, stacks := range u.Contexts {
		for _, w := range stacks {
			var elems []sdg.VertexID
			for _, v := range u.S.Procs[procIdx].Vertices {
				if slice[MakeKey(v, w)] {
					elems = append(elems, v)
				}
			}
			if len(elems) == 0 {
				continue
			}
			sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
			out = append(out, Variant{Proc: procIdx, Stack: w, Elems: elems})
		}
	}
	return out
}

// Specializations computes, per procedure name, the distinct element sets
// over all variants — the paper's Specializations(P) (Eqn. 3), the ground
// truth for minimality.
func (u *Graph) Specializations(slice map[Key]bool) map[string]map[string][]sdg.VertexID {
	out := map[string]map[string][]sdg.VertexID{}
	for _, v := range u.Variants(slice) {
		name := u.S.Procs[v.Proc].Name
		if out[name] == nil {
			out[name] = map[string][]sdg.VertexID{}
		}
		out[name][v.ElemsKey()] = v.Elems
	}
	return out
}
