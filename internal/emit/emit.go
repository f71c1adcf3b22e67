// Package emit pretty-prints slicing results back into executable MicroC
// programs (paper Alg. 1's final step). Given the source SDG and one or
// more procedure variants — each a list of a source procedure's vertices
// plus the specialized callee for every retained call-site — it rebuilds a
// lang.Program whose statements carry Origin links to the source program,
// so the interpreter can compare behaviors statement-by-statement.
//
// Emission builds no per-request index. Statements resolve to vertices
// through the source graph's statement index (sdg.Graph.StmtIndex), built
// once per graph; each variant is loaded into pooled stamped arrays over
// the source vertices and call sites in time proportional to its lists;
// and one walk per function emits its statements while collecting the
// names it declares and needs, and the globals the program uses.
package emit

import (
	"fmt"
	"sync"

	"specslice/internal/core"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// Program rebuilds an executable program from procedure variants (e.g.
// core.Result.Variants(), or the single-variant sets produced by the mono
// package). The variant whose original procedure is main and whose name is
// "main" becomes the program's main.
func Program(src *sdg.Graph, variants []core.ProcVariant) (*lang.Program, error) {
	sc := getScratch(src)
	defer scratchPool.Put(sc)
	e := &emitter{src: src, idx: src.StmtIndex(), out: lang.NewProgram(), sc: sc}

	hasMain := false
	e.out.Funcs = make([]*lang.FuncDecl, 0, len(variants))
	for _, v := range variants {
		fn, err := e.emitFunc(v)
		if err != nil {
			return nil, err
		}
		e.out.Funcs = append(e.out.Funcs, fn)
		if fn.Name == "main" {
			hasMain = true
		}
	}
	if !hasMain {
		return nil, fmt.Errorf("emit: no main variant in the slice")
	}

	// Globals: those referenced anywhere in the emitted code.
	for _, g := range src.Prog.Globals {
		if sc.names[g.Name].global {
			cp := *g
			e.out.Globals = append(e.out.Globals, &cp)
		}
	}

	if err := lang.Validate(e.out); err != nil {
		return nil, fmt.Errorf("emit: emitted program does not validate: %w", err)
	}
	return e.out, nil
}

// Source emits the variants and renders them as MicroC source text in one
// step — the path behind specslice.Slice.Source, which the HTTP service
// uses to return slice text to clients.
func Source(src *sdg.Graph, variants []core.ProcVariant) (string, error) {
	out, err := Program(src, variants)
	if err != nil {
		return "", err
	}
	return lang.Print(out), nil
}

// scratch is the pooled per-emission state: stamped membership tables over
// the source graph's vertices and call sites, current when they hold the
// epoch of the variant being emitted, and the reused name set. Nothing an
// emission returns points into it.
type scratch struct {
	epoch  uint32
	vertex []uint32 // per source vertex: epoch of the variant keeping it
	site   []uint32 // per source site: epoch of the variant calling through it
	callee []string // per source site: that variant's specialized callee
	names  map[string]nameMark
}

// nameMark records how the emitted program uses one variable name.
type nameMark struct {
	needed   uint32 // epoch of the last variant referencing the name
	declared uint32 // epoch of the last variant declaring it
	global   bool   // referenced as a variable anywhere in the program
}

var scratchPool = sync.Pool{New: func() any { return &scratch{names: map[string]nameMark{}} }}

// getScratch returns pooled scratch sized for src, its name set empty.
func getScratch(src *sdg.Graph) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.vertex) < len(src.Vertices) {
		sc.vertex = make([]uint32, len(src.Vertices))
	}
	if len(sc.site) < len(src.Sites) {
		sc.site = make([]uint32, len(src.Sites))
		sc.callee = make([]string, len(src.Sites))
	}
	clear(sc.names)
	return sc
}

type emitter struct {
	src *sdg.Graph
	idx *sdg.StmtIndex
	out *lang.Program
	sc  *scratch

	returnsValue bool // whether the variant being emitted returns a value

	// The emitted AST's most frequent nodes come from chunked slabs; the
	// chunks belong to the emitted AST, not to the pooled scratch.
	vars    lang.Slab[lang.VarRef]
	ints    lang.Slab[lang.IntLit]
	binarys lang.Slab[lang.Binary]
	assigns lang.Slab[lang.AssignStmt]
	calls   lang.Slab[lang.CallStmt]
	decls   lang.Slab[lang.DeclStmt]
}

// load stamps variant v's vertices and call targets under a fresh epoch.
func (e *emitter) load(v core.ProcVariant) {
	sc := e.sc
	if sc.epoch == ^uint32(0) {
		clear(sc.vertex)
		clear(sc.site)
		sc.epoch = 0
	}
	sc.epoch++
	for _, id := range v.Vertices {
		sc.vertex[id] = sc.epoch
	}
	for _, c := range v.Calls {
		sc.site[c.Site] = sc.epoch
		sc.callee[c.Site] = c.Callee
	}
}

// in reports whether source vertex id is in the loaded variant.
func (e *emitter) in(id sdg.VertexID) bool { return e.sc.vertex[id] == e.sc.epoch }

// included reports whether statement s's primary vertex is in the loaded
// variant.
func (e *emitter) included(s lang.Stmt) bool {
	id, ok := e.idx.PrimaryVertex(s.Base().ID)
	return ok && e.in(id)
}

// need records a reference to variable name in the current variant;
// global marks references that also make a same-named global part of
// the program (all but an indirect call's callee).
func (e *emitter) need(name string, global bool) {
	m := e.sc.names[name]
	if m.needed == e.sc.epoch && (m.global || !global) {
		return
	}
	m.needed = e.sc.epoch
	m.global = m.global || global
	e.sc.names[name] = m
}

// declare records that the current variant declares name.
func (e *emitter) declare(name string) {
	m := e.sc.names[name]
	m.declared = e.sc.epoch
	e.sc.names[name] = m
}

// base is the identity of an emitted copy of s: a fresh ID, s's position,
// and s's original statement as Origin.
func (e *emitter) base(s lang.Stmt) lang.StmtBase {
	b := s.Base()
	return lang.StmtBase{ID: e.out.NewID(), Pos: b.Pos, Origin: b.OriginID()}
}

// expr deep-copies x, recording the variables it references.
func (e *emitter) expr(x lang.Expr) lang.Expr {
	switch x := x.(type) {
	case nil:
		return nil
	case *lang.IntLit:
		return e.ints.New(*x)
	case *lang.VarRef:
		e.need(x.Name, true)
		return e.vars.New(*x)
	case *lang.FuncRef:
		return &lang.FuncRef{Name: x.Name}
	case *lang.Unary:
		return &lang.Unary{Op: x.Op, X: e.expr(x.X)}
	case *lang.Binary:
		return e.binarys.New(lang.Binary{Op: x.Op, X: e.expr(x.X), Y: e.expr(x.Y)})
	case *lang.CallExpr:
		return &lang.CallExpr{Callee: x.Callee, Args: e.exprs(x.Args), Indirect: x.Indirect}
	}
	panic("emit: unknown expression node")
}

func (e *emitter) exprs(xs []lang.Expr) []lang.Expr {
	if len(xs) == 0 {
		return nil
	}
	out := make([]lang.Expr, len(xs))
	for i, x := range xs {
		out[i] = e.expr(x)
	}
	return out
}

func (e *emitter) emitFunc(v core.ProcVariant) (*lang.FuncDecl, error) {
	e.load(v)
	orig := v.Orig.Fn
	fn := &lang.FuncDecl{Pos: orig.Pos, Name: v.Name}

	// Parameters: positional formals present in the variant, original
	// order (FormalIns lists positional parameters in ascending order).
	for _, fiID := range v.Orig.FormalIns {
		if fi := e.src.Vertices[fiID]; fi.Param != sdg.NoParam && e.in(fiID) {
			if fn.Params == nil {
				fn.Params = make([]lang.Param, 0, len(orig.Params))
			}
			p := orig.Params[fi.Param]
			fn.Params = append(fn.Params, p)
			e.declare(p.Name)
		}
	}
	e.returnsValue = false
	for _, foID := range v.Orig.FormalOuts {
		if e.src.Vertices[foID].IsReturn && e.in(foID) {
			e.returnsValue = true
		}
	}
	fn.ReturnsValue = e.returnsValue

	body := &lang.Block{}
	if err := e.emitBlock(body, orig.Body); err != nil {
		return nil, fmt.Errorf("emit: %s: %w", v.Name, err)
	}

	// Declare locals that are referenced but no longer declared (their
	// declaring statement may have been sliced away), in name order.
	var decls []lang.Stmt
	for _, l := range e.idx.Locals(v.Orig.Index) {
		if m := e.sc.names[l.Name]; m.needed == e.sc.epoch && m.declared != e.sc.epoch {
			decls = append(decls, e.decls.New(lang.DeclStmt{
				StmtBase: lang.StmtBase{ID: e.out.NewID(), Pos: orig.Pos},
				Name:     l.Name, IsFnPtr: l.FnPtr,
			}))
		}
	}
	if len(decls) > 0 {
		body.Stmts = append(decls, body.Stmts...)
	}
	fn.Body = body
	return fn, nil
}

// emitBlock appends to dst the emitted copies of b's statements.
func (e *emitter) emitBlock(dst, b *lang.Block) error {
	if b == nil {
		return nil
	}
	for _, s := range b.Stmts {
		if err := e.emitStmt(dst, s); err != nil {
			return err
		}
	}
	return nil
}

// site returns the call site of an included call, printf or scanf
// statement: its primary vertex is the call vertex.
func (e *emitter) site(s lang.Stmt) *sdg.Site {
	if id, ok := e.idx.PrimaryVertex(s.Base().ID); ok {
		if v := e.src.Vertices[id]; v.Kind == sdg.KindCall {
			return e.src.Sites[v.Site]
		}
	}
	return nil
}

func (e *emitter) emitStmt(dst *lang.Block, s lang.Stmt) error {
	switch x := s.(type) {
	case *lang.DeclStmt:
		// Pure declarations are re-synthesized on demand in emitFunc.
		if x.Init == nil || !e.included(s) {
			return nil
		}
		e.declare(x.Name)
		dst.Stmts = append(dst.Stmts, e.decls.New(lang.DeclStmt{StmtBase: e.base(s), Name: x.Name, IsFnPtr: x.IsFnPtr, Init: e.expr(x.Init)}))

	case *lang.AssignStmt:
		if !e.included(s) {
			return nil
		}
		e.need(x.LHS, true)
		dst.Stmts = append(dst.Stmts, e.assigns.New(lang.AssignStmt{StmtBase: e.base(s), LHS: x.LHS, RHS: e.expr(x.RHS)}))

	case *lang.BreakStmt:
		if e.included(s) {
			dst.Stmts = append(dst.Stmts, &lang.BreakStmt{StmtBase: e.base(s)})
		}

	case *lang.ContinueStmt:
		if e.included(s) {
			dst.Stmts = append(dst.Stmts, &lang.ContinueStmt{StmtBase: e.base(s)})
		}

	case *lang.ReturnStmt:
		if !e.included(s) {
			return nil
		}
		cp := &lang.ReturnStmt{StmtBase: e.base(s)}
		if e.returnsValue {
			cp.Value = e.expr(x.Value)
		}
		dst.Stmts = append(dst.Stmts, cp)

	case *lang.IfStmt:
		if !e.included(s) {
			return e.checkNoIncludedDescendant(x.Then, x.Else, x.Pos)
		}
		cp := &lang.IfStmt{StmtBase: e.base(s), Cond: e.expr(x.Cond), Then: &lang.Block{}}
		if err := e.emitBlock(cp.Then, x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			elseB := &lang.Block{}
			if err := e.emitBlock(elseB, x.Else); err != nil {
				return err
			}
			if len(elseB.Stmts) > 0 {
				cp.Else = elseB
			}
		}
		dst.Stmts = append(dst.Stmts, cp)

	case *lang.WhileStmt:
		if !e.included(s) {
			return e.checkNoIncludedDescendant(x.Body, nil, x.Pos)
		}
		cp := &lang.WhileStmt{StmtBase: e.base(s), Cond: e.expr(x.Cond), Body: &lang.Block{}}
		if err := e.emitBlock(cp.Body, x.Body); err != nil {
			return err
		}
		dst.Stmts = append(dst.Stmts, cp)

	case *lang.CallStmt:
		if !e.included(s) {
			return nil
		}
		site := e.site(s)
		if site == nil {
			return fmt.Errorf("no site for call at %s", x.Pos)
		}
		if e.sc.site[site.ID] != e.sc.epoch {
			// A call vertex can survive with no specialized callee only
			// when none of its actuals did: the call is a no-op in the
			// slice's semantics, so it is dropped from the text.
			for _, as := range [2][]sdg.VertexID{site.ActualIns, site.ActualOuts} {
				for _, a := range as {
					if e.in(a) {
						return fmt.Errorf("call at %s retained with live actuals but no specialized callee", x.Pos)
					}
				}
			}
			return nil
		}
		cp := lang.CallStmt{StmtBase: e.base(s), Callee: e.sc.callee[site.ID], Indirect: x.Indirect}
		// Keep only the argument positions whose actual-in survived.
		for _, aiID := range site.ActualIns {
			if ai := e.src.Vertices[aiID]; ai.Param != sdg.NoParam && e.in(aiID) {
				if cp.Args == nil {
					cp.Args = make([]lang.Expr, 0, len(x.Args))
				}
				cp.Args = append(cp.Args, e.expr(x.Args[ai.Param]))
			}
		}
		// Keep the result assignment only if the return actual-out survived.
		for _, aoID := range site.ActualOuts {
			if e.src.Vertices[aoID].IsReturn && e.in(aoID) {
				cp.Target = x.Target
			}
		}
		if cp.Target != "" {
			e.need(cp.Target, true)
		}
		if cp.Indirect {
			e.need(cp.Callee, false)
		}
		dst.Stmts = append(dst.Stmts, e.calls.New(cp))

	case *lang.PrintfStmt:
		if !e.included(s) {
			return nil
		}
		// §6.1 guarantees all printf actuals survive together.
		for _, ai := range e.site(s).ActualIns {
			if !e.in(ai) {
				return fmt.Errorf("printf at %s retained with missing actual (violates §6.1)", x.Pos)
			}
		}
		dst.Stmts = append(dst.Stmts, &lang.PrintfStmt{StmtBase: e.base(s), Format: x.Format, Args: e.exprs(x.Args)})

	case *lang.ScanfStmt:
		if !e.included(s) {
			return nil
		}
		e.need(x.Var, true)
		dst.Stmts = append(dst.Stmts, &lang.ScanfStmt{StmtBase: e.base(s), Format: x.Format, Var: x.Var})

	default:
		return fmt.Errorf("emit: unknown statement %T", s)
	}
	return nil
}

// checkNoIncludedDescendant guards the structural assumption that a sliced
// statement's structural ancestors are in the slice too (which holds because
// control dependence is transitively closed under pre*).
func (e *emitter) checkNoIncludedDescendant(b1, b2 *lang.Block, pos lang.Pos) error {
	var err error
	check := func(s lang.Stmt) {
		if err == nil && e.included(s) {
			err = fmt.Errorf("statement at %s is in the slice but its enclosing control structure at %s is not", s.Base().Pos, pos)
		}
	}
	lang.WalkStmts(b1, check)
	lang.WalkStmts(b2, check)
	return err
}
