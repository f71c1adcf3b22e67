package dataflow

// This file holds the reference mod/ref solver used as a differential
// oracle for the dense bitset implementation in modref.go. It is the old
// map-of-StringSet solver, relocated here when the production path moved
// to interned IDs and word-wise propagation — with one deliberate
// change: instead of scheduling SCCs of the call-graph condensation, it
// iterates the summary equations over the whole program round-robin
// until nothing changes. The fixpoints are unique, so the schedule
// cannot matter, and using a different one keeps the oracle independent
// of the production solver's traversal machinery.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"specslice/internal/cfg"
	"specslice/internal/lang"
)

// refModRef holds the oracle's per-procedure summaries.
type refModRef struct {
	gmod, gref, mustmod, ueref map[string]StringSet
}

type refSolver struct {
	prog         *lang.Program
	globals      StringSet
	addressTaken []string
	graphs       map[string]*cfg.Graph
	r            *refModRef
}

func refComputeModRef(prog *lang.Program) *refModRef {
	s := &refSolver{
		prog:         prog,
		globals:      StringSet{},
		addressTaken: addressTakenFuncs(prog),
		graphs:       map[string]*cfg.Graph{},
		r: &refModRef{
			gmod:    map[string]StringSet{},
			gref:    map[string]StringSet{},
			mustmod: map[string]StringSet{},
			ueref:   map[string]StringSet{},
		},
	}
	for _, g := range prog.Globals {
		if !g.IsFnPtr {
			s.globals[g.Name] = true
		}
	}
	for _, fn := range prog.Funcs {
		s.graphs[fn.Name] = cfg.Build(fn)
		s.r.gmod[fn.Name] = StringSet{}
		s.r.gref[fn.Name] = StringSet{}
		s.r.mustmod[fn.Name] = s.globals.Clone() // top; shrinks to greatest fixpoint
		s.r.ueref[fn.Name] = StringSet{}
	}

	// GMOD/GREF: least fixpoint, growing.
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			gm, gr := s.r.gmod[fn.Name], s.r.gref[fn.Name]
			before := len(gm) + len(gr)
			for _, st := range fn.Stmts() {
				s.addStmtModRef(st, gm, gr)
			}
			if len(gm)+len(gr) != before {
				changed = true
			}
		}
	}

	// MustMod: greatest fixpoint, shrinking.
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			outs := s.mustDefOuts(fn.Name)
			got := outs[s.graphs[fn.Name].Exit.ID]
			if !got.Equal(s.r.mustmod[fn.Name]) {
				s.r.mustmod[fn.Name] = got
				changed = true
			}
		}
	}

	// UEREF: least fixpoint over the final must-assigned solution.
	mustOuts := map[string][]StringSet{}
	for _, fn := range prog.Funcs {
		mustOuts[fn.Name] = s.mustDefOuts(fn.Name)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			g := s.graphs[fn.Name]
			outs := mustOuts[fn.Name]
			ue := s.r.ueref[fn.Name]
			before := len(ue)
			for ni, node := range g.Nodes {
				uses := s.nodeGlobalUses(node)
				if len(uses) == 0 {
					continue
				}
				in := s.mustDefIn(g, outs, ni)
				for v := range uses {
					if !in[v] {
						ue[v] = true
					}
				}
			}
			if len(ue) != before {
				changed = true
			}
		}
	}
	return s.r
}

func (s *refSolver) calleesOf(c *lang.CallStmt) []string {
	if !c.Indirect {
		return []string{c.Callee}
	}
	return s.addressTaken
}

func (s *refSolver) addStmtModRef(st lang.Stmt, gm, gr StringSet) {
	refExpr := func(e lang.Expr) {
		for _, v := range lang.ExprVars(e) {
			if s.globals[v] {
				gr[v] = true
			}
		}
	}
	switch x := st.(type) {
	case *lang.DeclStmt:
		refExpr(x.Init)
	case *lang.AssignStmt:
		refExpr(x.RHS)
		if s.globals[x.LHS] {
			gm[x.LHS] = true
		}
	case *lang.IfStmt:
		refExpr(x.Cond)
	case *lang.WhileStmt:
		refExpr(x.Cond)
	case *lang.ReturnStmt:
		refExpr(x.Value)
	case *lang.PrintfStmt:
		for _, a := range x.Args {
			refExpr(a)
		}
	case *lang.ScanfStmt:
		if s.globals[x.Var] {
			gm[x.Var] = true
		}
	case *lang.CallStmt:
		for _, a := range x.Args {
			refExpr(a)
		}
		if s.globals[x.Target] {
			gm[x.Target] = true
		}
		for _, callee := range s.calleesOf(x) {
			for g := range s.r.gmod[callee] {
				gm[g] = true
			}
			for g := range s.r.gref[callee] {
				gr[g] = true
			}
		}
	}
}

// nodeGlobalUses returns the globals referenced by the node: direct
// variable references in its expressions, plus the callee's
// upward-exposed globals for call nodes.
func (s *refSolver) nodeGlobalUses(node *cfg.Node) StringSet {
	uses := StringSet{}
	if node.Stmt == nil {
		return uses
	}
	for _, e := range lang.StmtExprs(node.Stmt) {
		for _, v := range lang.ExprVars(e) {
			if s.globals[v] {
				uses[v] = true
			}
		}
	}
	if c, ok := node.Stmt.(*lang.CallStmt); ok {
		for _, callee := range s.calleesOf(c) {
			for g := range s.r.ueref[callee] {
				uses[g] = true
			}
		}
	}
	return uses
}

// mustDefIn is the meet over a node's executable predecessors.
func (s *refSolver) mustDefIn(g *cfg.Graph, outs []StringSet, i int) StringSet {
	if g.Nodes[i].Kind == cfg.KindEntry {
		return StringSet{}
	}
	var in StringSet
	first := true
	for _, e := range g.Preds[i] {
		if e.Pseudo {
			continue
		}
		if first {
			in = outs[e.To].Clone()
			first = false
		} else {
			in = refIntersect(in, outs[e.To])
		}
	}
	if first {
		return s.globals.Clone() // unreachable
	}
	return in
}

// mustDefOuts runs the intraprocedural forward must-assigned analysis
// for fn using the current MustMod summaries for callees.
func (s *refSolver) mustDefOuts(fn string) []StringSet {
	g := s.graphs[fn]
	n := len(g.Nodes)
	out := make([]StringSet, n)
	for ni := range out {
		out[ni] = s.globals.Clone()
	}
	out[g.Entry.ID] = StringSet{}

	gen := func(node *cfg.Node) StringSet {
		gs := StringSet{}
		if node.Stmt == nil {
			return gs
		}
		switch x := node.Stmt.(type) {
		case *lang.AssignStmt:
			if s.globals[x.LHS] {
				gs[x.LHS] = true
			}
		case *lang.ScanfStmt:
			if s.globals[x.Var] {
				gs[x.Var] = true
			}
		case *lang.CallStmt:
			if s.globals[x.Target] {
				gs[x.Target] = true
			}
			callees := s.calleesOf(x)
			if len(callees) > 0 {
				meet := s.r.mustmod[callees[0]].Clone()
				for _, c := range callees[1:] {
					meet = refIntersect(meet, s.r.mustmod[c])
				}
				for v := range meet {
					gs[v] = true
				}
			}
		}
		return gs
	}

	for changed := true; changed; {
		changed = false
		for ni := 0; ni < n; ni++ {
			node := g.Nodes[ni]
			if node.Kind == cfg.KindEntry {
				continue
			}
			in := s.mustDefIn(g, out, ni)
			for v := range gen(node) {
				in[v] = true
			}
			if !in.Equal(out[ni]) {
				out[ni] = in
				changed = true
			}
		}
	}
	return out
}

func refIntersect(a, b StringSet) StringSet {
	out := StringSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// --- random program generator -----------------------------------------

// refProgGen emits a deterministic random MicroC program: global
// declarations plus one source string per function, so tests can splice
// in an edited body for the incremental path. Call targets are drawn
// uniformly over all function indexes, so self-recursion and mutual
// recursion (cycles through later-indexed functions) arise constantly;
// a fnptr global with address-taken functions and indirect calls shows
// up in a fraction of programs.
type refProgGen struct {
	rng      *rand.Rand
	nGlobals int
	nFuncs   int
	fnptr    bool
	stmts    int // per-body statement budget
}

func newRefProgGen(seed int64, large bool) *refProgGen {
	rng := rand.New(rand.NewSource(seed))
	g := &refProgGen{
		rng:      rng,
		nGlobals: 2 + rng.Intn(6),
		nFuncs:   2 + rng.Intn(8),
		fnptr:    rng.Intn(5) == 0,
		stmts:    4 + rng.Intn(10),
	}
	if large {
		// Past the solver's parMinStmts inline threshold, so the
		// worker sweep exercises the parallel chunked path for real.
		g.nFuncs = 28 + rng.Intn(8)
		g.stmts = 40 + rng.Intn(12)
		g.nGlobals = 6 + rng.Intn(6)
	}
	return g
}

func (g *refProgGen) global() string { return fmt.Sprintf("g%d", g.rng.Intn(g.nGlobals)) }

func (g *refProgGen) expr(depth int) string {
	if depth > 0 && g.rng.Intn(3) == 0 {
		ops := []string{"+", "-", "*", "<"}
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), ops[g.rng.Intn(len(ops))], g.expr(depth-1))
	}
	switch g.rng.Intn(4) {
	case 0:
		return g.global()
	case 1:
		return "a"
	case 2:
		return "x"
	default:
		return fmt.Sprintf("%d", g.rng.Intn(100))
	}
}

func (g *refProgGen) stmt(b *strings.Builder, indent string, depth, inLoop int) {
	switch k := g.rng.Intn(12); {
	case k <= 2: // global assignment
		fmt.Fprintf(b, "%s%s = %s;\n", indent, g.global(), g.expr(2))
	case k == 3:
		fmt.Fprintf(b, "%sx = %s;\n", indent, g.expr(2))
	case k == 4:
		fmt.Fprintf(b, "%sscanf(\"%%d\", &%s);\n", indent, g.global())
	case k == 5:
		fmt.Fprintf(b, "%sprintf(\"%%d\", %s);\n", indent, g.expr(2))
	case k <= 8: // call: plain, into a local, or into a global
		callee := fmt.Sprintf("f%d", g.rng.Intn(g.nFuncs))
		if g.fnptr && g.rng.Intn(4) == 0 {
			callee = "fp"
		}
		switch g.rng.Intn(3) {
		case 0:
			fmt.Fprintf(b, "%s%s(%s);\n", indent, callee, g.expr(1))
		case 1:
			fmt.Fprintf(b, "%sx = %s(%s);\n", indent, callee, g.expr(1))
		default:
			fmt.Fprintf(b, "%s%s = %s(%s);\n", indent, g.global(), callee, g.expr(1))
		}
	case k == 9 && depth < 2: // if / if-else, sometimes with an early return
		fmt.Fprintf(b, "%sif (%s) {\n", indent, g.expr(1))
		if g.rng.Intn(6) == 0 {
			fmt.Fprintf(b, "%s  return %s;\n", indent, g.expr(1))
		} else {
			g.stmt(b, indent+"  ", depth+1, inLoop)
		}
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(b, "%s} else {\n", indent)
			g.stmt(b, indent+"  ", depth+1, inLoop)
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case k == 10 && depth < 2: // while, sometimes with break/continue
		fmt.Fprintf(b, "%swhile (%s) {\n", indent, g.expr(1))
		g.stmt(b, indent+"  ", depth+1, inLoop+1)
		if g.rng.Intn(4) == 0 {
			word := "break"
			if g.rng.Intn(2) == 0 {
				word = "continue"
			}
			fmt.Fprintf(b, "%s  if (%s) { %s; }\n", indent, g.expr(0), word)
		}
		fmt.Fprintf(b, "%sx = x - 1;\n%s}\n", indent, indent)
	default:
		fmt.Fprintf(b, "%s%s = %s + %s;\n", indent, g.global(), g.global(), g.expr(1))
	}
}

// funcSource renders function fi's full text from a dedicated rand
// stream, so an "edit" is just re-rendering one function with another
// seed.
func (g *refProgGen) funcSource(fi int, seed int64) string {
	saved := g.rng
	g.rng = rand.New(rand.NewSource(seed))
	defer func() { g.rng = saved }()

	var b strings.Builder
	fmt.Fprintf(&b, "int f%d(int a) {\n  int x = %d;\n", fi, g.rng.Intn(10))
	for i := 0; i < g.stmts; i++ {
		g.stmt(&b, "  ", 0, 0)
	}
	b.WriteString("  return x;\n}\n")
	return b.String()
}

func (g *refProgGen) header() string {
	var b strings.Builder
	for i := 0; i < g.nGlobals; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	if g.fnptr {
		b.WriteString("fnptr fp;\n")
	}
	return b.String()
}

func (g *refProgGen) mainSource() string {
	var b strings.Builder
	b.WriteString("int main() {\n  int a = 1;\n  int x = 0;\n")
	if g.fnptr {
		fmt.Fprintf(&b, "  fp = &f%d;\n", g.rng.Intn(g.nFuncs))
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "  fp = &f%d;\n", g.rng.Intn(g.nFuncs))
		}
	}
	for i := 0; i < 3; i++ {
		g.stmt(&b, "  ", 0, 0)
	}
	fmt.Fprintf(&b, "  printf(\"%%d\", %s);\n  return 0;\n}\n", g.global())
	return b.String()
}

// source assembles the program; bodySeeds[i] overrides function i's
// body stream (used by the incremental tests to splice in edits).
func (g *refProgGen) source(bodySeeds map[int]int64) string {
	var b strings.Builder
	b.WriteString(g.header())
	for fi := 0; fi < g.nFuncs; fi++ {
		seed := int64(1000 + fi)
		if s, ok := bodySeeds[fi]; ok {
			seed = s
		}
		b.WriteString(g.funcSource(fi, seed))
	}
	b.WriteString(g.mainSource())
	return b.String()
}

func refParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	return prog
}

// checkAgainstOracle fails unless mr's four relations are identical to
// the oracle's for every procedure.
func checkAgainstOracle(t *testing.T, ctx string, mr *ModRef, ref *refModRef, prog *lang.Program) {
	t.Helper()
	rels := []struct {
		name string
		got  func(fn string) StringSet
		want map[string]StringSet
	}{
		{"GMOD", mr.GMOD, ref.gmod},
		{"GREF", mr.GREF, ref.gref},
		{"MustMod", mr.MustMod, ref.mustmod},
		{"UEREF", mr.UEREF, ref.ueref},
	}
	for _, fn := range prog.Funcs {
		for _, rel := range rels {
			got, want := rel.got(fn.Name), rel.want[fn.Name]
			if !got.Equal(want) {
				t.Errorf("%s: %s[%s]: dense=%v oracle=%v", ctx, rel.name, fn.Name, got.Sorted(), want.Sorted())
			}
		}
		// The precomputed name slices must agree with the materialized view.
		wantFI := mr.FormalInGlobals(fn.Name).Sorted()
		if gotFI := mr.FormalInGlobalNames(fn.Name); !sameStrings(gotFI, wantFI) {
			t.Errorf("%s: FormalInGlobalNames[%s]=%v, want %v", ctx, fn.Name, gotFI, wantFI)
		}
	}
}

const refOraclePrograms = 220

// TestModRefDifferentialOracle cross-checks the dense solver against
// the reference solver on randomly generated programs — recursive and
// mutually recursive call graphs included — and requires the dense rows
// to be identical at every worker count.
func TestModRefDifferentialOracle(t *testing.T) {
	n := refOraclePrograms
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		large := i%20 == 19 // past parMinStmts, so workers>1 really fan out
		g := newRefProgGen(int64(i), large)
		prog := refParse(t, g.source(nil))
		ref := refComputeModRef(prog)

		base, _ := ComputeModRefCFGs(prog, 1)
		checkAgainstOracle(t, fmt.Sprintf("prog %d (workers=1)", i), base, ref, prog)
		for _, workers := range []int{2, 4, 8} {
			mr, _ := ComputeModRefCFGs(prog, workers)
			for _, fn := range prog.Funcs {
				if !rowsEqualFor(base, mr, fn.Name) {
					t.Errorf("prog %d: workers=%d rows differ from workers=1 for %s", i, workers, fn.Name)
				}
			}
			checkAgainstOracle(t, fmt.Sprintf("prog %d (workers=%d)", i, workers), mr, ref, prog)
		}
	}
}

// TestAdvanceModRefDiffOracle edits one random procedure per program
// (and occasionally appends a new one), advances the summaries
// incrementally, and requires the result to match both a from-scratch
// dense run and the reference solver.
func TestAdvanceModRefDiffOracle(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	for i := 0; i < n; i++ {
		g := newRefProgGen(int64(500+i), i%10 == 9)
		oldProg := refParse(t, g.source(nil))
		oldMR := ComputeModRef(oldProg)

		edited := g.source(map[int]int64{g.rng.Intn(g.nFuncs): int64(9000 + i)})
		if i%7 == 0 {
			edited += fmt.Sprintf("int fextra(int a) {\n  g0 = a;\n  return f0(a);\n}\n")
		}
		newProg := refParse(t, edited)

		adv := AdvanceModRef(newProg, oldProg, oldMR)
		full := ComputeModRef(newProg)
		for _, fn := range newProg.Funcs {
			if !rowsEqualFor(adv, full, fn.Name) {
				t.Errorf("prog %d: advanced rows differ from full recompute for %s", i, fn.Name)
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("advanced prog %d", i), adv, refComputeModRef(newProg), newProg)
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
