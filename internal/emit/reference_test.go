package emit

import (
	"fmt"
	"sort"

	"specslice/internal/core"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// refVariant is the map form of core.ProcVariant the reference emitter
// reads: the variant's source vertices as a set, and its call targets by
// site.
type refVariant struct {
	Orig       *sdg.Proc
	Name       string
	Vertices   map[sdg.VertexID]bool
	CallTarget map[sdg.SiteID]string
}

// refVariants adapts the list view to the reference emitter's maps.
func refVariants(vars []core.ProcVariant) []refVariant {
	out := make([]refVariant, len(vars))
	for i, v := range vars {
		rv := refVariant{Orig: v.Orig, Name: v.Name, Vertices: map[sdg.VertexID]bool{}, CallTarget: map[sdg.SiteID]string{}}
		for _, id := range v.Vertices {
			rv.Vertices[id] = true
		}
		for _, c := range v.Calls {
			rv.CallTarget[c.Site] = c.Callee
		}
		out[i] = rv
	}
	return out
}

// referenceProgram is the map-based emitter that Program replaced, kept
// verbatim (over refVariant, the map form of core.ProcVariant) as the
// differential oracle for the list-based one. It rebuilds an executable
// program from procedure variants; the variant whose original procedure is
// main and whose name is "main" becomes the program's main.
func referenceProgram(src *sdg.Graph, vars []core.ProcVariant) (*lang.Program, error) {
	variants := refVariants(vars)
	e := &refEmitter{src: src, out: lang.NewProgram()}

	// Index: statement ID -> primary vertex, per original proc.
	e.vertexOfStmt = map[lang.NodeID]sdg.VertexID{}
	for _, v := range src.Vertices {
		if v.Stmt == nil {
			continue
		}
		switch v.Kind {
		case sdg.KindStmt, sdg.KindPredicate, sdg.KindCall:
			e.vertexOfStmt[v.Stmt.Base().ID] = v.ID
		}
	}
	// Index: site by call statement ID.
	e.siteOfStmt = map[lang.NodeID]*sdg.Site{}
	for _, s := range src.Sites {
		e.siteOfStmt[s.Stmt.Base().ID] = s
	}

	hasMain := false
	for _, v := range variants {
		fn, err := e.refEmitFunc(v)
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
	used := map[string]bool{}
	for _, fn := range e.out.Funcs {
		for _, s := range fn.Stmts() {
			for _, ex := range lang.StmtExprs(s) {
				for _, vr := range lang.ExprVars(ex) {
					used[vr] = true
				}
			}
			switch x := s.(type) {
			case *lang.AssignStmt:
				used[x.LHS] = true
			case *lang.ScanfStmt:
				used[x.Var] = true
			case *lang.CallStmt:
				if x.Target != "" {
					used[x.Target] = true
				}
			}
		}
	}
	for _, g := range src.Prog.Globals {
		if used[g.Name] {
			cp := *g
			e.out.Globals = append(e.out.Globals, &cp)
		}
	}

	if err := lang.Validate(e.out); err != nil {
		return nil, fmt.Errorf("emit: emitted program does not validate: %w", err)
	}
	return e.out, nil
}

type refEmitter struct {
	src          *sdg.Graph
	out          *lang.Program
	vertexOfStmt map[lang.NodeID]sdg.VertexID
	siteOfStmt   map[lang.NodeID]*sdg.Site
}

func (e *refEmitter) refEmitFunc(v refVariant) (*lang.FuncDecl, error) {
	orig := v.Orig.Fn
	fn := &lang.FuncDecl{Pos: orig.Pos, Name: v.Name}

	// Parameters: positional formals present in the variant, original order.
	keepParam := map[int]bool{}
	returnsValue := false
	for _, fiID := range v.Orig.FormalIns {
		fi := e.src.Vertices[fiID]
		if fi.Param != sdg.NoParam && v.Vertices[fiID] {
			keepParam[fi.Param] = true
		}
	}
	for _, foID := range v.Orig.FormalOuts {
		fo := e.src.Vertices[foID]
		if fo.IsReturn && v.Vertices[foID] {
			returnsValue = true
		}
	}
	for i, p := range orig.Params {
		if keepParam[i] {
			fn.Params = append(fn.Params, p)
		}
	}
	fn.ReturnsValue = returnsValue

	body, err := e.refEmitBlock(orig.Body, v, returnsValue)
	if err != nil {
		return nil, fmt.Errorf("emit: %s: %w", v.Name, err)
	}
	fn.Body = body

	// Declare locals that are referenced but no longer declared (their
	// declaring statement may have been sliced away).
	declared := map[string]bool{}
	for _, p := range fn.Params {
		declared[p.Name] = true
	}
	lang.WalkStmts(fn.Body, func(s lang.Stmt) {
		if d, ok := s.(*lang.DeclStmt); ok {
			declared[d.Name] = true
		}
	})
	origLocals := map[string]bool{}
	fnptrLocals := map[string]bool{}
	lang.WalkStmts(orig.Body, func(s lang.Stmt) {
		if d, ok := s.(*lang.DeclStmt); ok {
			origLocals[d.Name] = true
			if d.IsFnPtr {
				fnptrLocals[d.Name] = true
			}
		}
	})
	for _, pp := range orig.Params {
		origLocals[pp.Name] = true
	}
	needed := map[string]bool{}
	lang.WalkStmts(fn.Body, func(s lang.Stmt) {
		for _, ex := range lang.StmtExprs(s) {
			for _, vr := range lang.ExprVars(ex) {
				needed[vr] = true
			}
		}
		switch x := s.(type) {
		case *lang.AssignStmt:
			needed[x.LHS] = true
		case *lang.ScanfStmt:
			needed[x.Var] = true
		case *lang.CallStmt:
			if x.Target != "" {
				needed[x.Target] = true
			}
			if x.Indirect {
				needed[x.Callee] = true
			}
		}
	})
	var missing []string
	for vr := range needed {
		if origLocals[vr] && !declared[vr] {
			missing = append(missing, vr)
		}
	}
	sort.Strings(missing)
	var decls []lang.Stmt
	for _, vr := range missing {
		decls = append(decls, &lang.DeclStmt{
			StmtBase: lang.StmtBase{ID: e.out.NewID(), Pos: orig.Pos},
			Name:     vr, IsFnPtr: fnptrLocals[vr],
		})
	}
	fn.Body.Stmts = append(decls, fn.Body.Stmts...)
	return fn, nil
}

func (e *refEmitter) refEmitBlock(b *lang.Block, v refVariant, returnsValue bool) (*lang.Block, error) {
	out := &lang.Block{}
	if b == nil {
		return out, nil
	}
	for _, s := range b.Stmts {
		stmts, err := e.refEmitStmt(s, v, returnsValue)
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, stmts...)
	}
	return out, nil
}

func (e *refEmitter) refIncluded(s lang.Stmt, v refVariant) bool {
	vid, ok := e.vertexOfStmt[s.Base().ID]
	return ok && v.Vertices[vid]
}

func (e *refEmitter) refEmitStmt(s lang.Stmt, v refVariant, returnsValue bool) ([]lang.Stmt, error) {
	switch x := s.(type) {
	case *lang.DeclStmt:
		if x.Init == nil {
			// Pure declarations are re-synthesized on demand in emitFunc.
			return nil, nil
		}
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		return []lang.Stmt{lang.CloneStmtInto(e.out, s)}, nil

	case *lang.AssignStmt, *lang.BreakStmt, *lang.ContinueStmt:
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		return []lang.Stmt{lang.CloneStmtInto(e.out, s)}, nil

	case *lang.ReturnStmt:
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		cp := lang.CloneStmtInto(e.out, s).(*lang.ReturnStmt)
		if !returnsValue {
			cp.Value = nil
		}
		return []lang.Stmt{cp}, nil

	case *lang.IfStmt:
		if !e.refIncluded(s, v) {
			if err := e.refCheckNoIncludedDescendant(x.Then, x.Else, v, x.Pos); err != nil {
				return nil, err
			}
			return nil, nil
		}
		cp := &lang.IfStmt{
			StmtBase: lang.StmtBase{ID: e.out.NewID(), Pos: x.Pos, Origin: x.OriginID()},
			Cond:     lang.CloneExpr(x.Cond),
		}
		var err error
		cp.Then, err = e.refEmitBlock(x.Then, v, returnsValue)
		if err != nil {
			return nil, err
		}
		if x.Else != nil {
			elseB, err := e.refEmitBlock(x.Else, v, returnsValue)
			if err != nil {
				return nil, err
			}
			if len(elseB.Stmts) > 0 {
				cp.Else = elseB
			}
		}
		return []lang.Stmt{cp}, nil

	case *lang.WhileStmt:
		if !e.refIncluded(s, v) {
			if err := e.refCheckNoIncludedDescendant(x.Body, nil, v, x.Pos); err != nil {
				return nil, err
			}
			return nil, nil
		}
		cp := &lang.WhileStmt{
			StmtBase: lang.StmtBase{ID: e.out.NewID(), Pos: x.Pos, Origin: x.OriginID()},
			Cond:     lang.CloneExpr(x.Cond),
		}
		var err error
		cp.Body, err = e.refEmitBlock(x.Body, v, returnsValue)
		if err != nil {
			return nil, err
		}
		return []lang.Stmt{cp}, nil

	case *lang.CallStmt:
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		site := e.siteOfStmt[x.ID]
		if site == nil {
			return nil, fmt.Errorf("no site for call at %s", x.Pos)
		}
		callee, ok := v.CallTarget[site.ID]
		if !ok {
			// A call vertex can survive with no specialized callee only
			// when none of its actuals did: the call is a no-op in the
			// slice's semantics, so it is dropped from the text.
			for _, a := range append(append([]sdg.VertexID(nil), site.ActualIns...), site.ActualOuts...) {
				if v.Vertices[a] {
					return nil, fmt.Errorf("call at %s retained with live actuals but no specialized callee", x.Pos)
				}
			}
			return nil, nil
		}
		cp := &lang.CallStmt{
			StmtBase: lang.StmtBase{ID: e.out.NewID(), Pos: x.Pos, Origin: x.OriginID()},
			Callee:   callee, Indirect: x.Indirect,
		}
		// Keep only the argument positions whose actual-in survived.
		for _, aiID := range site.ActualIns {
			ai := e.src.Vertices[aiID]
			if ai.Param != sdg.NoParam && v.Vertices[aiID] {
				cp.Args = append(cp.Args, lang.CloneExpr(x.Args[ai.Param]))
			}
		}
		// Keep the result assignment only if the return actual-out survived.
		for _, aoID := range site.ActualOuts {
			ao := e.src.Vertices[aoID]
			if ao.IsReturn && v.Vertices[aoID] {
				cp.Target = x.Target
			}
		}
		return []lang.Stmt{cp}, nil

	case *lang.PrintfStmt:
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		// §6.1 guarantees all printf actuals survive together.
		site := e.siteOfStmt[x.ID]
		for _, ai := range site.ActualIns {
			if !v.Vertices[ai] {
				return nil, fmt.Errorf("printf at %s retained with missing actual (violates §6.1)", x.Pos)
			}
		}
		return []lang.Stmt{lang.CloneStmtInto(e.out, s)}, nil

	case *lang.ScanfStmt:
		if !e.refIncluded(s, v) {
			return nil, nil
		}
		return []lang.Stmt{lang.CloneStmtInto(e.out, s)}, nil
	}
	return nil, fmt.Errorf("emit: unknown statement %T", s)
}

// checkNoIncludedDescendant guards the structural assumption that a sliced
// statement's structural ancestors are in the slice too (which holds because
// control dependence is transitively closed under pre*).
func (e *refEmitter) refCheckNoIncludedDescendant(b1, b2 *lang.Block, v refVariant, pos lang.Pos) error {
	var err error
	check := func(s lang.Stmt) {
		if err == nil && e.refIncluded(s, v) {
			err = fmt.Errorf("statement at %s is in the slice but its enclosing control structure at %s is not", s.Base().Pos, pos)
		}
	}
	lang.WalkStmts(b1, check)
	lang.WalkStmts(b2, check)
	return err
}
