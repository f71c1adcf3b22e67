// Package funcptr implements the paper's §6.2 treatment of pointers to
// procedures and indirect calls: a flow-insensitive Andersen-style
// points-to analysis over fnptr variables, followed by a transformation
// that replaces each indirect call with a call to a synthesized dispatch
// procedure ("indirect" in the paper) whose body tests the pointer against
// each procedure in its points-to set. After the transformation the program
// contains only direct calls, so the SDG builder and the
// specialization-slicing algorithm apply unchanged — and the slicer
// automatically specializes the dispatch procedures along with everything
// else.
package funcptr

import (
	"fmt"
	"sort"

	"specslice/internal/lang"
)

// PointsTo is the result of the points-to analysis: for each fnptr variable
// (globals by name, locals and params as "func/var"), the set of functions
// it may hold.
type PointsTo map[string]map[string]bool

// key returns the points-to key for variable name v in function fn (fnptr
// globals use their bare name).
func key(prog *lang.Program, fn *lang.FuncDecl, v string) string {
	for _, g := range prog.Globals {
		if g.Name == v && g.IsFnPtr {
			return v
		}
	}
	return fn.Name + "/" + v
}

// Analyze computes flow-insensitive points-to sets for fnptr variables.
// Like the paper's CodeSurfer setup (Andersen's analysis), it does not
// model uninitialized pointers: a dispatch procedure tests only the
// functions that may be assigned.
func Analyze(prog *lang.Program) PointsTo {
	pts := PointsTo{}
	get := func(k string) map[string]bool {
		if pts[k] == nil {
			pts[k] = map[string]bool{}
		}
		return pts[k]
	}
	type copyEdge struct{ from, to string }
	var copies []copyEdge

	addExpr := func(fn *lang.FuncDecl, dst string, e lang.Expr) {
		switch x := e.(type) {
		case *lang.FuncRef:
			get(dst)[x.Name] = true
		case *lang.VarRef:
			copies = append(copies, copyEdge{key(prog, fn, x.Name), dst})
		}
	}

	// Indirect-call argument binding depends on the callee set, which grows
	// during the fixed point; rebuild constraints until stable.
	for {
		before := fmt.Sprint(pts)
		copies = copies[:0]
		for _, fn := range prog.Funcs {
			for _, s := range fn.Stmts() {
				switch x := s.(type) {
				case *lang.DeclStmt:
					if x.Init != nil {
						addExpr(fn, key(prog, fn, x.Name), x.Init)
					}
				case *lang.AssignStmt:
					addExpr(fn, key(prog, fn, x.LHS), x.RHS)
				case *lang.CallStmt:
					var callees []string
					if x.Indirect {
						for f := range pts[key(prog, fn, x.Callee)] {
							callees = append(callees, f)
						}
					} else {
						callees = []string{x.Callee}
					}
					for _, cn := range callees {
						callee := prog.Func(cn)
						if callee == nil {
							continue
						}
						for i, a := range x.Args {
							if i < len(callee.Params) {
								// The argument expression is evaluated in
								// the *caller*'s scope; the destination is
								// the callee's parameter.
								addExpr(fn, key(prog, callee, callee.Params[i].Name), a)
							}
						}
					}
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, c := range copies {
				for f := range pts[c.from] {
					if !get(c.to)[f] {
						get(c.to)[f] = true
						changed = true
					}
				}
			}
		}
		if fmt.Sprint(pts) == before {
			break
		}
	}
	return pts
}

// Transform rewrites prog so that every indirect call goes through a
// synthesized dispatch procedure. It returns the transformed program and
// the number of dispatch procedures created. A program without indirect
// calls needs no rewriting and is returned itself, with 0 created;
// otherwise the result is a deep copy and prog is not modified.
func Transform(prog *lang.Program) (*lang.Program, int, error) {
	if !prog.HasIndirectCall() {
		return prog, 0, nil
	}
	out := lang.CloneProgram(prog)
	pts := Analyze(out)

	dispatchFor := map[string]string{} // signature key -> dispatch proc name
	created := 0

	for _, fn := range out.Funcs {
		var err error
		rewriteBlock(out, fn, pts, dispatchFor, &created, fn.Body, &err)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := lang.Validate(out); err != nil {
		return nil, 0, fmt.Errorf("funcptr: transformed program invalid: %w", err)
	}
	return out, created, nil
}

func rewriteBlock(prog *lang.Program, fn *lang.FuncDecl, pts PointsTo, dispatchFor map[string]string, created *int, b *lang.Block, err *error) {
	if b == nil || *err != nil {
		return
	}
	for i, s := range b.Stmts {
		switch x := s.(type) {
		case *lang.IfStmt:
			rewriteBlock(prog, fn, pts, dispatchFor, created, x.Then, err)
			rewriteBlock(prog, fn, pts, dispatchFor, created, x.Else, err)
		case *lang.WhileStmt:
			rewriteBlock(prog, fn, pts, dispatchFor, created, x.Body, err)
		case *lang.CallStmt:
			if !x.Indirect {
				continue
			}
			var cands []string
			for f := range pts[key(prog, fn, x.Callee)] {
				cands = append(cands, f)
			}
			sort.Strings(cands)
			if len(cands) == 0 {
				*err = fmt.Errorf("funcptr: %s: indirect call through %q with empty points-to set", x.Pos, x.Callee)
				return
			}
			name, e := dispatchProc(prog, dispatchFor, created, cands, len(x.Args), x.Target != "")
			if e != nil {
				*err = fmt.Errorf("funcptr: %s: %v", x.Pos, e)
				return
			}
			// x = p(a, b)  becomes  x = __dispatch_N(p, a, b).
			nc := &lang.CallStmt{
				StmtBase: lang.StmtBase{ID: prog.NewID(), Pos: x.Pos, Origin: x.OriginID()},
				Target:   x.Target,
				Callee:   name,
				Args:     append([]lang.Expr{&lang.VarRef{Name: x.Callee}}, x.Args...),
			}
			b.Stmts[i] = nc
		}
	}
}

// dispatchProc returns (creating on demand) the dispatch procedure for the
// given candidate set / arity / value-use signature.
func dispatchProc(prog *lang.Program, dispatchFor map[string]string, created *int, cands []string, arity int, needsValue bool) (string, error) {
	for _, c := range cands {
		callee := prog.Func(c)
		if callee == nil {
			return "", fmt.Errorf("candidate %q is not a function", c)
		}
		if len(callee.Params) != arity {
			return "", fmt.Errorf("candidate %q takes %d args, call passes %d", c, len(callee.Params), arity)
		}
		if needsValue && !callee.ReturnsValue {
			return "", fmt.Errorf("candidate %q returns no value but the call result is used", c)
		}
	}
	sig := fmt.Sprintf("%v/%d/%v", cands, arity, needsValue)
	if name, ok := dispatchFor[sig]; ok {
		return name, nil
	}
	*created++
	name := fmt.Sprintf("__dispatch_%d", *created)
	dispatchFor[sig] = name

	fd := &lang.FuncDecl{Name: name, ReturnsValue: needsValue}
	fd.Params = append(fd.Params, lang.Param{Name: "__p", IsFnPtr: true})
	var argNames []string
	for i := 0; i < arity; i++ {
		an := fmt.Sprintf("__a%d", i)
		fd.Params = append(fd.Params, lang.Param{Name: an})
		argNames = append(argNames, an)
	}
	fd.Body = &lang.Block{}
	if needsValue {
		fd.Body.Stmts = append(fd.Body.Stmts, &lang.DeclStmt{
			StmtBase: lang.StmtBase{ID: prog.NewID()}, Name: "__r",
		})
	}

	callTo := func(f string) lang.Stmt {
		c := &lang.CallStmt{StmtBase: lang.StmtBase{ID: prog.NewID()}, Callee: f}
		for _, an := range argNames {
			c.Args = append(c.Args, &lang.VarRef{Name: an})
		}
		if needsValue {
			c.Target = "__r"
		}
		return c
	}

	// Nested if (__p == f1) ... else if ... else { last }. The final
	// candidate sits in the bare else, mirroring the paper's example (and
	// its caveat about uninitialized pointers).
	var build func(rest []string) *lang.Block
	build = func(rest []string) *lang.Block {
		if len(rest) == 1 {
			return &lang.Block{Stmts: []lang.Stmt{callTo(rest[0])}}
		}
		ifs := &lang.IfStmt{
			StmtBase: lang.StmtBase{ID: prog.NewID()},
			Cond:     &lang.Binary{Op: "==", X: &lang.VarRef{Name: "__p"}, Y: &lang.FuncRef{Name: rest[0]}},
			Then:     &lang.Block{Stmts: []lang.Stmt{callTo(rest[0])}},
			Else:     build(rest[1:]),
		}
		return &lang.Block{Stmts: []lang.Stmt{ifs}}
	}
	dispatch := build(cands)
	fd.Body.Stmts = append(fd.Body.Stmts, dispatch.Stmts...)
	if needsValue {
		fd.Body.Stmts = append(fd.Body.Stmts, &lang.ReturnStmt{
			StmtBase: lang.StmtBase{ID: prog.NewID()},
			Value:    &lang.VarRef{Name: "__r"},
		})
	}
	prog.Funcs = append(prog.Funcs, fd)
	return name, nil
}
