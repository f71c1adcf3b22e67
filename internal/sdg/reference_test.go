package sdg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"specslice/internal/cfg"
	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/workload"
)

// refFlowEdges is the map-based reaching-definitions solver that
// flowEdges replaced, kept as its differential reference: definitions
// keyed by (vertex, variable) in a map, a fresh bitset per worklist
// visit, and a FIFO worklist seeded with every node in ID order. Only its
// input view changed: it reads the per-node events from bodyEvents.
func refFlowEdges(graph *cfg.Graph, ev *bodyEvents, em *bodyBuf) {
	type nodeInfo struct {
		defs []defEvent
		uses []useEvent
	}
	info := make([]nodeInfo, len(graph.Nodes))
	for i := range info {
		info[i].defs = ev.defs[ev.defStart[i]:ev.defStart[i+1]]
		info[i].uses = ev.uses[ev.useStart[i]:ev.useStart[i+1]]
	}

	// Index all definitions.
	type def struct {
		vertex VertexID
		vr     string
	}
	var defs []def
	defIndex := map[def]int{}
	defsOfVar := map[string][]int{}
	for i := range info {
		for _, d := range info[i].defs {
			k := def{d.vertex, d.vr}
			if _, ok := defIndex[k]; !ok {
				defIndex[k] = len(defs)
				defsOfVar[d.vr] = append(defsOfVar[d.vr], len(defs))
				defs = append(defs, k)
			}
		}
	}
	nd := len(defs)
	words := (nd + 63) / 64
	newSet := func() []uint64 { return make([]uint64, words) }
	setBit := func(s []uint64, i int) { s[i/64] |= 1 << (uint(i) % 64) }
	clearBit := func(s []uint64, i int) { s[i/64] &^= 1 << (uint(i) % 64) }
	getBit := func(s []uint64, i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

	n := len(graph.Nodes)
	inSets := make([][]uint64, n)
	outSets := make([][]uint64, n)
	for i := 0; i < n; i++ {
		inSets[i] = newSet()
		outSets[i] = newSet()
	}

	apply := func(nodeID int, in []uint64) []uint64 {
		out := append([]uint64(nil), in...)
		for _, d := range info[nodeID].defs {
			if d.kills {
				for _, di := range defsOfVar[d.vr] {
					clearBit(out, di)
				}
			}
		}
		for _, d := range info[nodeID].defs {
			setBit(out, defIndex[def{d.vertex, d.vr}])
		}
		return out
	}

	work := make([]int, 0, n)
	inWork := make([]bool, n)
	for i := 0; i < n; i++ {
		work = append(work, i)
		inWork[i] = true
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		in := newSet()
		for _, e := range graph.Preds[id] {
			if e.Pseudo {
				continue
			}
			for w := 0; w < words; w++ {
				in[w] |= outSets[e.To][w]
			}
		}
		inSets[id] = in
		out := apply(id, in)
		changed := false
		for w := 0; w < words; w++ {
			if out[w] != outSets[id][w] {
				changed = true
				break
			}
		}
		if changed {
			outSets[id] = out
			for _, e := range graph.Succs[id] {
				if e.Pseudo {
					continue
				}
				if !inWork[e.To] {
					inWork[e.To] = true
					work = append(work, e.To)
				}
			}
		}
	}

	for id := 0; id < n; id++ {
		for _, u := range info[id].uses {
			for _, di := range defsOfVar[u.vr] {
				if getBit(inSets[id], di) {
					em.addEdge(defs[di].vertex, u.vertex, EdgeFlow)
				}
			}
		}
	}
}

// jumpProgram generates a random valid program rich in what reaching
// definitions and control dependence find hard: loops nested two deep
// with breaks and continues, early returns inside branches and loops,
// recursive and mutually recursive calls through globals, scanf and
// printf.
func jumpProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	nGlobals, nFuncs := 2+rng.Intn(4), 1+rng.Intn(5)
	global := func() string { return fmt.Sprintf("g%d", rng.Intn(nGlobals)) }
	operand := func() string {
		switch rng.Intn(4) {
		case 0:
			return global()
		case 1:
			return "a"
		case 2:
			return "x"
		default:
			return fmt.Sprint(rng.Intn(10))
		}
	}
	expr := func() string {
		if rng.Intn(2) == 0 {
			return operand()
		}
		return fmt.Sprintf("%s + %s", operand(), operand())
	}
	var b strings.Builder
	var stmt func(indent string, depth int, inLoop bool)
	stmt = func(indent string, depth int, inLoop bool) {
		switch k := rng.Intn(14); {
		case k <= 2:
			fmt.Fprintf(&b, "%s%s = %s;\n", indent, global(), expr())
		case k <= 4:
			fmt.Fprintf(&b, "%sx = %s;\n", indent, expr())
		case k == 5:
			fmt.Fprintf(&b, "%sscanf(\"%%d\", &%s);\n", indent, []string{"x", global()}[rng.Intn(2)])
		case k == 6:
			fmt.Fprintf(&b, "%sprintf(\"%%d %%d\", %s, %s);\n", indent, expr(), operand())
		case k == 7:
			callee := fmt.Sprintf("f%d", rng.Intn(nFuncs))
			target := []string{"", "x = ", global() + " = "}[rng.Intn(3)]
			fmt.Fprintf(&b, "%s%s%s(%s);\n", indent, target, callee, expr())
		case k == 8 && inLoop:
			fmt.Fprintf(&b, "%sif (%s) { %s; }\n", indent, operand(), []string{"break", "continue"}[rng.Intn(2)])
		case k == 9:
			fmt.Fprintf(&b, "%sif (%s) {\n%s  return %s;\n%s}\n", indent, operand(), indent, expr(), indent)
		case k <= 11 && depth < 2:
			fmt.Fprintf(&b, "%sif (%s) {\n", indent, expr())
			for i := rng.Intn(3); i >= 0; i-- {
				stmt(indent+"  ", depth+1, inLoop)
			}
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%s} else {\n", indent)
				stmt(indent+"  ", depth+1, inLoop)
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case depth < 2:
			fmt.Fprintf(&b, "%swhile (%s) {\n", indent, operand())
			for i := rng.Intn(4); i >= 0; i-- {
				stmt(indent+"  ", depth+1, true)
			}
			fmt.Fprintf(&b, "%s  x = x - 1;\n%s}\n", indent, indent)
		default:
			fmt.Fprintf(&b, "%s%s = %s + 1;\n", indent, global(), global())
		}
	}
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	for f := 0; f < nFuncs; f++ {
		fmt.Fprintf(&b, "int f%d(int a) {\n  int x = %d;\n", f, rng.Intn(10))
		for i := 2 + rng.Intn(8); i > 0; i-- {
			stmt("  ", 0, false)
		}
		b.WriteString("  return x;\n}\n")
	}
	b.WriteString("int main() {\n  int a = 1;\n  int x = 0;\n")
	for i := 2 + rng.Intn(6); i > 0; i-- {
		stmt("  ", 0, false)
	}
	fmt.Fprintf(&b, "  printf(\"%%d\", %s);\n  return 0;\n}\n", global())
	return b.String()
}

// TestFlowEdgesMatchReference requires flowEdges to emit exactly the flow
// edges of the map-based solver it replaced, in the same order, for every
// procedure of the 12 Fig. 17 suites and of 200 generated programs with
// jumps; and Build of each generated program to repeat no (to, kind) pair
// in any out list.
func TestFlowEdgesMatchReference(t *testing.T) {
	type program struct {
		name string
		prog *lang.Program
	}
	var progs []program
	for _, c := range workload.Benchmarks() {
		progs = append(progs, program{c.Name, workload.Generate(c)})
	}
	n := 200
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		src := jumpProgram(int64(i))
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program %d does not parse: %v\n%s", i, err, src)
		}
		progs = append(progs, program{fmt.Sprintf("generated %d", i), prog})
	}
	procs, edges := 0, 0
	for _, pc := range progs {
		b := newBuilder(pc.prog, dataflow.ComputeModRef(pc.prog), nil)
		b.buildSkeletons()
		for _, p := range b.g.Procs {
			graph := cfg.Build(p.Fn)
			body := bodyBuf{skelBase: VertexID(len(b.g.Vertices)), sc: &bodyScratch{}}
			ev, err := b.bodyVertices(p, graph, &body)
			if err != nil {
				t.Fatalf("%s: %s: %v", pc.name, p.Name, err)
			}
			got, want := bodyBuf{sc: body.sc}, bodyBuf{}
			flowEdges(graph, ev, &got)
			refFlowEdges(graph, ev, &want)
			if !slices.Equal(got.edges, want.edges) {
				t.Fatalf("%s: %s: flow edges differ:\ngot  %v\nwant %v", pc.name, p.Name, got.edges, want.edges)
			}
			procs++
			edges += len(got.edges)
		}
		if strings.HasPrefix(pc.name, "generated") {
			checkNoDuplicateOutEdges(t, pc.name, MustBuild(pc.prog))
		}
	}
	t.Logf("%d procedures, %d flow edges", procs, edges)
}

// checkNoDuplicateOutEdges fails if an out list repeats a (target, kind)
// pair, in O(vertices + edges): mark[kinds·to + kind] holds the last
// source vertex (plus one) that had that edge.
func checkNoDuplicateOutEdges(t *testing.T, name string, g *Graph) {
	t.Helper()
	const kinds = int(EdgeParamOut) + 1
	mark := make([]int32, kinds*len(g.Vertices))
	for v := range g.Vertices {
		for _, e := range g.Out(VertexID(v)) {
			k := kinds*int(e.To) + int(e.Kind)
			if mark[k] == int32(v)+1 {
				t.Fatalf("%s: duplicate edge v%d -%s-> v%d", name, v, e.Kind, e.To)
			}
			mark[k] = int32(v) + 1
		}
	}
}
