// Command sdgdot renders a MicroC program's system dependence graph — or
// the specialized SDG of a slice — in Graphviz DOT form, in the style of
// the paper's Figs. 3, 5, and 6.
//
// Usage:
//
//	sdgdot file.mc                 # the program's SDG
//	sdgdot -slice printf file.mc   # the specialized SDG of the slice
package main

import (
	"flag"
	"fmt"
	"os"

	"specslice/internal/core"
	"specslice/internal/funcptr"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

func main() {
	slice := flag.String("slice", "", `empty for the full SDG, or "printf" to specialize on main's printfs`)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sdgdot [-slice printf] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	prog, _, err = funcptr.Transform(prog)
	if err != nil {
		fatal(err)
	}
	g, err := sdg.Build(prog)
	if err != nil {
		fatal(err)
	}
	if *slice != "" {
		var cfgs core.Configs
		for _, v := range core.PrintfCriterion(g, "main") {
			cfgs = append(cfgs, core.Config{Vertex: v})
		}
		res, err := core.Specialize(g, cfgs)
		if err != nil {
			fatal(err)
		}
		g = res.BuildR().R
	}
	fmt.Print(dot(g))
}

func dot(g *sdg.Graph) string {
	out := "digraph sdg {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n"
	for _, p := range g.Procs {
		out += fmt.Sprintf("  subgraph cluster_%d {\n    label=%q;\n", p.Index, p.Name)
		for _, v := range p.Vertices {
			vx := g.Vertices[v]
			shape := "box"
			switch vx.Kind {
			case sdg.KindEntry:
				shape = "house"
			case sdg.KindFormalIn, sdg.KindFormalOut, sdg.KindActualIn, sdg.KindActualOut:
				shape = "ellipse"
			case sdg.KindPredicate:
				shape = "diamond"
			}
			out += fmt.Sprintf("    v%d [label=%q, shape=%s];\n", v, vx.Label, shape)
		}
		out += "  }\n"
	}
	style := map[sdg.EdgeKind]string{
		sdg.EdgeControl:  "[color=black]",
		sdg.EdgeFlow:     "[color=blue]",
		sdg.EdgeCall:     "[color=red, style=dashed]",
		sdg.EdgeParamIn:  "[color=darkgreen, style=dashed]",
		sdg.EdgeParamOut: "[color=purple, style=dashed]",
		sdg.EdgeSummary:  "[color=gray, style=dotted]",
	}
	for _, e := range g.Edges() {
		out += fmt.Sprintf("  v%d -> v%d %s;\n", e.From, e.To, style[e.Kind])
	}
	return out + "}\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdgdot:", err)
	os.Exit(1)
}
