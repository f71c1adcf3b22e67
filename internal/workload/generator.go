package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"specslice/internal/lang"
)

// BenchConfig describes one synthetic benchmark program, shaped after a row
// of the paper's Fig. 17.
type BenchConfig struct {
	Name string
	// Versions is the paper's column 2 (how many versions of the real
	// program the original study used); informational only.
	Versions int
	// Procs is the number of procedures to generate (Fig. 17 column 4).
	Procs int
	// TargetVertices steers the generated body sizes toward the paper's
	// average PDG vertex count (Fig. 17 column 5).
	TargetVertices int
	// CallSites steers the number of call sites (Fig. 17 column 6).
	CallSites int
	// Slices is how many slicing criteria the experiments take (Fig. 17
	// column 7).
	Slices int
	// Recursive adds self-recursive calls.
	Recursive bool
	Seed      int64
}

// Benchmarks returns the twelve suites of the paper's Fig. 17. The four
// large programs (gzip, space, flex, go) are scaled to a quarter of their
// PDG-vertex counts so the full experiment suite runs in CI-scale time; the
// shape metrics the experiments report (ratios, distributions, crossovers)
// are size-independent. See EXPERIMENTS.md.
func Benchmarks() []BenchConfig {
	return []BenchConfig{
		{Name: "tcas", Versions: 37, Procs: 9, TargetVertices: 466, CallSites: 38, Slices: 10, Seed: 101},
		{Name: "schedule2", Versions: 2, Procs: 16, TargetVertices: 980, CallSites: 47, Slices: 6, Seed: 102},
		{Name: "schedule", Versions: 6, Procs: 18, TargetVertices: 873, CallSites: 44, Slices: 10, Seed: 103},
		{Name: "print_tokens", Versions: 4, Procs: 18, TargetVertices: 1298, CallSites: 89, Slices: 4, Seed: 104},
		{Name: "replace", Versions: 26, Procs: 21, TargetVertices: 1330, CallSites: 65, Slices: 12, Seed: 105},
		{Name: "print_tokens2", Versions: 8, Procs: 19, TargetVertices: 1128, CallSites: 84, Slices: 10, Seed: 106},
		{Name: "tot_info", Versions: 19, Procs: 7, TargetVertices: 675, CallSites: 37, Slices: 10, Seed: 107},
		{Name: "wc", Versions: 1, Procs: 11, TargetVertices: 1899, CallSites: 170, Slices: 10, Seed: 108, Recursive: true},
		{Name: "gzip", Versions: 4, Procs: 97, TargetVertices: 6605, CallSites: 556, Slices: 8, Seed: 109, Recursive: true},
		{Name: "space", Versions: 20, Procs: 136, TargetVertices: 4706, CallSites: 1016, Slices: 8, Seed: 110},
		{Name: "flex", Versions: 5, Procs: 147, TargetVertices: 9609, CallSites: 1308, Slices: 8, Seed: 111, Recursive: true},
		{Name: "go", Versions: 1, Procs: 372, TargetVertices: 25614, CallSites: 2084, Slices: 4, Seed: 112, Recursive: true},
	}
}

// SmallBenchmarks returns only the Siemens-suite-sized configurations plus
// wc, for quick test runs.
func SmallBenchmarks() []BenchConfig {
	all := Benchmarks()
	return all[:8]
}

// Generate produces a deterministic synthetic MicroC program for cfg.
//
// The generator mimics two properties of the paper's C programs that the
// experiments depend on:
//
//   - Most procedures are *cohesive*: their outputs depend on all their
//     inputs, so every slice takes them whole and they get a single
//     specialized version (paper Fig. 18: 90.6% of procedures).
//   - A minority are *separable*, in the style of the paper's Fig. 1
//     procedure p: parameter i feeds global i, so call-sites with different
//     relevant arguments induce parameter mismatches and hence multiple
//     specializations.
//
// Globals have locality (each procedure touches a small window), keeping
// call-site interfaces — and hence PDG vertex counts — proportional to the
// real programs'.
func Generate(cfg BenchConfig) *lang.Program {
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	src := g.source()
	prog, err := lang.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("workload.Generate(%s): generated invalid program: %v\n%s", cfg.Name, err, src))
	}
	return prog
}

// GenerateSource returns the program text (useful for golden files and
// debugging).
func GenerateSource(cfg BenchConfig) string {
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	return g.source()
}

type generator struct {
	cfg BenchConfig
	rng *rand.Rand

	globals []string
	procs   []genProc

	callBudget int
}

type genProc struct {
	name      string
	params    []string
	returns   bool
	separable bool
	pure      bool
	driver    bool     // may call side-effecting procs, propagating mismatches
	window    []string // the globals this proc touches directly
}

func (g *generator) source() string {
	nGlobals := max(4, min(12, g.cfg.Procs/4+4))
	for i := 0; i < nGlobals; i++ {
		g.globals = append(g.globals, fmt.Sprintf("gv%d", i))
	}
	n := g.cfg.Procs - 1 // main is separate
	for i := 0; i < n; i++ {
		np := 2 + g.rng.Intn(2)
		// Three styles, echoing real C code: pure functions (inputs →
		// return value; always a single specialized version), cohesive
		// procedures with one global side effect, and the Fig.-1-style
		// separable minority that drives specialization.
		// Style by call-graph position: leaves (high index) receive the
		// most fan-in under the leafward call bias, so they are mostly
		// pure — otherwise every caller-context liveness pattern would
		// split them, which real programs don't exhibit (paper Fig. 18).
		separable := g.rng.Intn(100) < 12
		pure := !separable && (i >= 2*n/3 || g.rng.Intn(100) < 40)
		if separable {
			np = 2 // two independent param→global chains, as in Fig. 1's p
		}
		var params []string
		for j := 0; j < np; j++ {
			params = append(params, fmt.Sprintf("a%d", j))
		}
		w := g.rng.Intn(nGlobals)
		wsize := 1
		if separable {
			wsize = np
		}
		if pure {
			wsize = 0
		}
		var window []string
		for j := 0; j < wsize; j++ {
			window = append(window, g.globals[(w+j)%nGlobals])
		}
		g.procs = append(g.procs, genProc{
			name:      fmt.Sprintf("p%d", i),
			params:    params,
			returns:   pure || g.rng.Intn(2) == 0,
			separable: separable,
			pure:      pure,
			driver:    !pure && !separable && g.rng.Intn(100) < 35,
			window:    window,
		})
	}

	// Reserve call budget for main so large suites still call out of main.
	mainCalls := max(3, min(g.cfg.Procs/2, g.cfg.CallSites/4))
	g.callBudget = g.cfg.CallSites - mainCalls

	// Per-procedure statement budget: aim TargetVertices across procs,
	// discounting the per-call interface cost (~10 vertices).
	callsPerProc := 0
	if n > 0 {
		callsPerProc = g.callBudget / max(1, n)
	}
	perProc := g.cfg.TargetVertices / max(1, g.cfg.Procs)
	stmtBudget := max(4, perProc-8-11*callsPerProc)

	var sb strings.Builder
	for _, gl := range g.globals {
		fmt.Fprintf(&sb, "int %s;\n", gl)
	}
	sb.WriteByte('\n')

	for i, p := range g.procs {
		ret := "void"
		if p.returns {
			ret = "int"
		}
		var params []string
		for _, pn := range p.params {
			params = append(params, "int "+pn)
		}
		fmt.Fprintf(&sb, "%s %s(%s) {\n", ret, p.name, strings.Join(params, ", "))
		g.emitBody(&sb, i, p, stmtBudget, callsPerProc)
		sb.WriteString("}\n\n")
	}

	// main: initialize globals, call around, print slice points.
	sb.WriteString("int main() {\n")
	sb.WriteString("  int x0;\n  int x1;\n  int x2;\n")
	sb.WriteString("  x0 = 1;\n  x1 = 2;\n  x2 = 3;\n")
	for i, gl := range g.globals {
		fmt.Fprintf(&sb, "  %s = %d;\n", gl, i+1)
	}
	// main folds each call's result into a global (round-robin), so every
	// called procedure can influence some slice criterion.
	g.callBudget += mainCalls
	mainProc := genProc{name: "main", params: []string{"x0", "x1", "x2"}}
	for i := 0; i < mainCalls && len(g.procs) > 0; i++ {
		callee, args, ok := g.pickCall(-1, mainProc)
		if !ok {
			break
		}
		call := fmt.Sprintf("%s(%s)", callee.name, strings.Join(args, ", "))
		gl := g.globals[i%len(g.globals)]
		if callee.returns {
			fmt.Fprintf(&sb, "  %s = %s + %s;\n", gl, gl, call)
		} else {
			fmt.Fprintf(&sb, "  %s;\n", call)
		}
	}
	// Fig.-1-style clusters: each separable procedure is driven through
	// the paper's three-call pattern, whose sites need different parameter
	// subsets once a slice makes only part of its window live.
	var separableWindows []string
	for _, p := range g.procs {
		if !p.separable || len(p.window) < 2 || g.callBudget < 3 {
			continue
		}
		g.callBudget -= 3
		fmt.Fprintf(&sb, "  %s(%s, 2);\n", p.name, p.window[0])
		fmt.Fprintf(&sb, "  %s(%s, 3);\n", p.name, p.window[0])
		fmt.Fprintf(&sb, "  %s(4, %s + %s);\n", p.name, p.window[0], p.window[1])
		separableWindows = append(separableWindows, p.window...)
	}

	// Slice points: one aggregate print (most computation live — the
	// common case) plus narrow single-global prints (partial liveness —
	// the mismatch-inducing case), preferring separable windows.
	var agg []string
	for i := 0; i < (len(g.globals)+1)/2; i++ {
		agg = append(agg, g.globals[i])
	}
	fmt.Fprintf(&sb, "  printf(\"%%d\\n\", %s);\n", strings.Join(agg, " + "))
	nPrints := max(1, min(5, g.cfg.Slices-1))
	for i := 0; i < nPrints; i++ {
		gl := g.globals[g.rng.Intn(len(g.globals))]
		if len(separableWindows) > 0 && i%2 == 0 {
			gl = separableWindows[g.rng.Intn(len(separableWindows))]
		}
		fmt.Fprintf(&sb, "  printf(\"%%d\\n\", %s);\n", gl)
	}
	sb.WriteString("  return 0;\n}\n")
	return sb.String()
}

// emitBody writes one procedure body in its style.
func (g *generator) emitBody(sb *strings.Builder, i int, p genProc, stmtBudget, calls int) {
	if p.separable {
		// Fig.-1 style: parameter j feeds window global j; independent
		// chains, so different callers need different parameter subsets.
		// Separable procedures are leaves (no calls), keeping the cascade
		// effect (paper §4.3) bounded as in real programs.
		for j, pn := range p.params {
			fmt.Fprintf(sb, "  %s = %s + %d;\n", p.window[j], pn, j+1)
		}
		if p.returns {
			fmt.Fprintf(sb, "  return %s;\n", p.params[0])
		}
		return
	}

	// Cohesive style: fold all parameters into an accumulator local; every
	// output (globals in the window, return value) depends on it, so slices
	// take the whole procedure. Call results also feed the accumulator, so
	// a callee's liveness follows its caller's — the usage uniformity that
	// makes 90% of real procedures need only one specialized version
	// (paper Fig. 18).
	fmt.Fprintf(sb, "  int acc = %s;\n", strings.Join(p.params, " + "))
	pp := p
	pp.params = append(append([]string(nil), p.params...), "acc")
	emitted := 0
	for emitted < stmtBudget {
		emitted += g.emitStmt(sb, i, pp, 1, &emitted)
	}
	for c := 0; c < calls; c++ {
		g.emitCallInto(sb, i, pp, 1, "acc")
	}
	// Window writes form a dependence chain, so the live-output patterns a
	// slice can induce are prefixes — cohesive procedures rarely split.
	for j, w := range p.window {
		if j == 0 {
			fmt.Fprintf(sb, "  %s = %s + acc;\n", w, w)
		} else {
			fmt.Fprintf(sb, "  %s = %s + %s + acc;\n", w, w, p.window[j-1])
		}
	}
	if p.returns {
		sb.WriteString("  return acc;\n")
	}
}

// emitStmt writes one statement (possibly compound), returning the rough
// statement count it produced.
func (g *generator) emitStmt(sb *strings.Builder, i int, p genProc, depth int, emitted *int) int {
	ind := indent(depth)
	switch k := g.rng.Intn(10); {
	case k < 4:
		fmt.Fprintf(sb, "%sacc = acc + %s;\n", ind, g.operand(p))
		return 1
	case k < 6:
		if len(p.window) == 0 {
			fmt.Fprintf(sb, "%sacc = acc %s %s;\n", ind,
				[]string{"+", "*", "-"}[g.rng.Intn(3)], g.operand(p))
			return 1
		}
		fmt.Fprintf(sb, "%s%s = acc %s %s;\n", ind, p.window[g.rng.Intn(len(p.window))],
			[]string{"+", "*", "-"}[g.rng.Intn(3)], g.operand(p))
		return 1
	case k < 8 && depth < 3: // if
		fmt.Fprintf(sb, "%sif (%s > %d) {\n", ind, g.operand(p), g.rng.Intn(10))
		n := 1 + g.emitStmt(sb, i, p, depth+1, emitted)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(sb, "%s} else {\n", ind)
			n += g.emitStmt(sb, i, p, depth+1, emitted)
		}
		fmt.Fprintf(sb, "%s}\n", ind)
		return n
	case k < 9 && depth < 3: // bounded while over a parameter copy
		lv := p.params[g.rng.Intn(len(p.params))]
		fmt.Fprintf(sb, "%swhile (%s > 0) {\n", ind, lv)
		n := 2 + g.emitStmt(sb, i, p, depth+1, emitted)
		fmt.Fprintf(sb, "%s%s = %s - 1;\n", indent(depth+1), lv, lv)
		fmt.Fprintf(sb, "%s}\n", ind)
		return n
	default:
		fmt.Fprintf(sb, "%sacc = acc * 2 + %d;\n", ind, g.rng.Intn(7))
		return 1
	}
}

// emitCallInto emits a call whose result (when any) is folded into the
// accumulator variable, tying the callee's liveness to the caller's.
func (g *generator) emitCallInto(sb *strings.Builder, from int, p genProc, depth int, acc string) {
	callee, args, ok := g.pickCall(from, p)
	if !ok {
		fmt.Fprintf(sb, "%s%s = %s + 1;\n", indent(depth), acc, acc)
		return
	}
	call := fmt.Sprintf("%s(%s)", callee.name, strings.Join(args, ", "))
	if callee.returns {
		fmt.Fprintf(sb, "%s%s = %s + %s;\n", indent(depth), acc, acc, call)
	} else {
		fmt.Fprintf(sb, "%s%s;\n", indent(depth), call)
	}
}

// pickCall chooses a callee and argument expressions, honoring the budget.
// Callees have a higher index than from, keeping the call graph a DAG
// except for optional self-recursion; main passes from = -1 and may call
// anything. Non-main callers call only pure procedures: global side effects are
// orchestrated from main, so a procedure's call-sites carry no
// context-varying actual-out patterns — the usage uniformity behind the
// paper's 90.6%-single-version distribution.
func (g *generator) pickCall(from int, p genProc) (genProc, []string, bool) {
	lo := from + 1
	if g.callBudget <= 0 || lo >= len(g.procs) {
		return genProc{}, nil, false
	}
	var callee genProc
	if from < 0 {
		// main calls anything, spreading slice coverage.
		callee = g.procs[g.rng.Intn(len(g.procs))]
	} else if g.cfg.Recursive && g.rng.Intn(12) == 0 {
		callee = g.procs[from] // self-recursion
	} else {
		found := false
		for try := 0; try < 8; try++ {
			var cand genProc
			if g.rng.Intn(2) == 0 { // anywhere below (depth)
				cand = g.procs[lo+g.rng.Intn(len(g.procs)-lo)]
			} else { // leafward bias keeps transitive interfaces small
				span := min(6, len(g.procs)-lo)
				cand = g.procs[len(g.procs)-1-g.rng.Intn(span)]
			}
			if cand.pure || p.driver {
				callee = cand
				found = true
				break
			}
		}
		if !found {
			return genProc{}, nil, false
		}
	}
	g.callBudget--
	var args []string
	for range callee.params {
		// Mix of relevant values and constants: constants at separable
		// callees are what create different relevance patterns per site.
		if g.rng.Intn(3) == 0 {
			args = append(args, fmt.Sprintf("%d", 1+g.rng.Intn(9)))
		} else {
			args = append(args, g.operand(p))
		}
	}
	return callee, args, true
}

func (g *generator) operand(p genProc) string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%d", 1+g.rng.Intn(9))
	case 1:
		return g.globals[g.rng.Intn(len(g.globals))]
	default:
		return p.params[g.rng.Intn(len(p.params))]
	}
}

func indent(n int) string { return strings.Repeat("  ", n) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
