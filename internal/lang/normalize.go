package lang

import (
	"fmt"
	"slices"
)

// scope holds the symbol information name resolution consults. resolve
// builds the program-level tables once, so each reference costs a map
// lookup rather than a scan of Program.Funcs or Program.Globals, and
// resets the per-function ones for each function in turn.
type scope struct {
	funcs   map[string]*FuncDecl
	globals map[string]bool // name -> IsFnPtr
	fn      *FuncDecl
	vars    map[string]bool // params + locals
	fnptrs  map[string]bool // the params and locals holding function values
}

// enter resets sc to fn's params and locals, checking their declarations.
func (sc *scope) enter(fn *FuncDecl) error {
	sc.fn = fn
	clear(sc.vars)
	clear(sc.fnptrs)
	for _, pm := range fn.Params {
		if sc.vars[pm.Name] {
			return fmt.Errorf("%s: duplicate parameter %q in %s", fn.Pos, pm.Name, fn.Name)
		}
		if sc.funcs[pm.Name] != nil {
			return fmt.Errorf("%s: parameter %q shadows a function", fn.Pos, pm.Name)
		}
		sc.vars[pm.Name] = true
		if pm.IsFnPtr {
			sc.fnptrs[pm.Name] = true
		}
	}
	var err error
	WalkStmts(fn.Body, func(s Stmt) {
		d, ok := s.(*DeclStmt)
		if !ok || err != nil {
			return
		}
		if sc.vars[d.Name] {
			err = fmt.Errorf("%s: duplicate local %q in %s (MicroC locals have flat function scope)", d.Pos, d.Name, fn.Name)
			return
		}
		if sc.funcs[d.Name] != nil {
			err = fmt.Errorf("%s: local %q shadows a function", d.Pos, d.Name)
			return
		}
		sc.vars[d.Name] = true
		if d.IsFnPtr {
			sc.fnptrs[d.Name] = true
		}
	})
	return err
}

// known reports whether name is visible in the scope (local, param, or global).
func (sc *scope) known(name string) bool {
	if sc.vars[name] {
		return true
	}
	_, ok := sc.globals[name]
	return ok
}

// fnptr reports whether name is a variable holding a function value: an
// fnptr param, local or global.
func (sc *scope) fnptr(name string) bool {
	return sc.fnptrs[name] || sc.globals[name]
}

// resolve performs name resolution on a freshly parsed program: it converts
// variable references that name functions into FuncRefs, classifies calls as
// direct or indirect, and checks declarations, arities, and main's shape.
func resolve(prog *Program) error {
	sc := &scope{
		funcs:   make(map[string]*FuncDecl, len(prog.Funcs)),
		globals: make(map[string]bool, len(prog.Globals)),
		vars:    map[string]bool{},
		fnptrs:  map[string]bool{},
	}
	for _, g := range prog.Globals {
		if _, dup := sc.globals[g.Name]; dup {
			return fmt.Errorf("%s: duplicate global %q", g.Pos, g.Name)
		}
		sc.globals[g.Name] = g.IsFnPtr
	}
	for _, f := range prog.Funcs {
		if sc.funcs[f.Name] != nil {
			return fmt.Errorf("%s: duplicate function %q", f.Pos, f.Name)
		}
		if _, ok := sc.globals[f.Name]; ok {
			return fmt.Errorf("%s: function %q collides with a global", f.Pos, f.Name)
		}
		sc.funcs[f.Name] = f
	}
	if m := sc.funcs["main"]; m == nil {
		return fmt.Errorf("program has no main function")
	} else if len(m.Params) != 0 {
		return fmt.Errorf("%s: main must take no parameters", m.Pos)
	}

	for _, fn := range prog.Funcs {
		if err := sc.enter(fn); err != nil {
			return err
		}
		if err := sc.resolveFunc(); err != nil {
			return err
		}
	}
	return nil
}

func (sc *scope) resolveFunc() error {
	var err error
	WalkStmts(sc.fn.Body, func(s Stmt) {
		if err != nil {
			return
		}
		err = sc.resolveStmt(s)
	})
	return err
}

func (sc *scope) resolveStmt(s Stmt) error {
	pos := s.Base().Pos
	switch x := s.(type) {
	case *DeclStmt:
		if x.Init != nil {
			if e, err := sc.resolveExpr(x.Init, pos); err != nil {
				return err
			} else {
				x.Init = e
			}
		}
	case *AssignStmt:
		if !sc.known(x.LHS) {
			return fmt.Errorf("%s: assignment to undeclared variable %q", pos, x.LHS)
		}
		e, err := sc.resolveExpr(x.RHS, pos)
		if err != nil {
			return err
		}
		x.RHS = e
	case *CallStmt:
		if err := sc.resolveCallTarget(&x.Callee, &x.Indirect, pos); err != nil {
			return err
		}
		if !x.Indirect {
			callee := sc.funcs[x.Callee]
			if len(x.Args) != len(callee.Params) {
				return fmt.Errorf("%s: call to %s with %d args, want %d", pos, x.Callee, len(x.Args), len(callee.Params))
			}
			if x.Target != "" && !callee.ReturnsValue {
				return fmt.Errorf("%s: void function %s used in assignment", pos, x.Callee)
			}
		}
		if x.Target != "" && !sc.known(x.Target) {
			return fmt.Errorf("%s: assignment to undeclared variable %q", pos, x.Target)
		}
		for i, a := range x.Args {
			e, err := sc.resolveExpr(a, pos)
			if err != nil {
				return err
			}
			x.Args[i] = e
		}
	case *IfStmt:
		e, err := sc.resolveExpr(x.Cond, pos)
		if err != nil {
			return err
		}
		x.Cond = e
	case *WhileStmt:
		e, err := sc.resolveExpr(x.Cond, pos)
		if err != nil {
			return err
		}
		x.Cond = e
	case *ReturnStmt:
		if x.Value != nil && !sc.fn.ReturnsValue {
			return fmt.Errorf("%s: void function %s returns a value", pos, sc.fn.Name)
		}
		if x.Value != nil {
			e, err := sc.resolveExpr(x.Value, pos)
			if err != nil {
				return err
			}
			x.Value = e
		}
	case *PrintfStmt:
		for i, a := range x.Args {
			e, err := sc.resolveExpr(a, pos)
			if err != nil {
				return err
			}
			x.Args[i] = e
		}
	case *ScanfStmt:
		if !sc.known(x.Var) {
			return fmt.Errorf("%s: scanf into undeclared variable %q", pos, x.Var)
		}
	}
	return nil
}

func (sc *scope) resolveCallTarget(callee *string, indirect *bool, pos Pos) error {
	name := *callee
	switch {
	case sc.funcs[name] != nil:
		*indirect = false
	case sc.fnptr(name):
		*indirect = true
	case sc.known(name):
		return fmt.Errorf("%s: %q is not a function or fnptr", pos, name)
	default:
		return fmt.Errorf("%s: call to undefined function %q", pos, name)
	}
	return nil
}

func (sc *scope) resolveExpr(e Expr, pos Pos) (Expr, error) {
	switch x := e.(type) {
	case *IntLit:
		return x, nil
	case *VarRef:
		if sc.funcs[x.Name] != nil {
			return &FuncRef{Name: x.Name}, nil
		}
		if !sc.known(x.Name) {
			return nil, fmt.Errorf("%s: undeclared variable %q", pos, x.Name)
		}
		return x, nil
	case *FuncRef:
		if sc.funcs[x.Name] == nil {
			return nil, fmt.Errorf("%s: &%s does not name a function", pos, x.Name)
		}
		return x, nil
	case *Unary:
		sub, err := sc.resolveExpr(x.X, pos)
		if err != nil {
			return nil, err
		}
		x.X = sub
		return x, nil
	case *Binary:
		l, err := sc.resolveExpr(x.X, pos)
		if err != nil {
			return nil, err
		}
		r, err := sc.resolveExpr(x.Y, pos)
		if err != nil {
			return nil, err
		}
		x.X, x.Y = l, r
		return x, nil
	case *CallExpr:
		if err := sc.resolveCallTarget(&x.Callee, &x.Indirect, pos); err != nil {
			return nil, err
		}
		if !x.Indirect {
			callee := sc.funcs[x.Callee]
			if !callee.ReturnsValue {
				return nil, fmt.Errorf("%s: void function %s used as a value", pos, x.Callee)
			}
			if len(x.Args) != len(callee.Params) {
				return nil, fmt.Errorf("%s: call to %s with %d args, want %d", pos, x.Callee, len(x.Args), len(callee.Params))
			}
		}
		for i, a := range x.Args {
			sub, err := sc.resolveExpr(a, pos)
			if err != nil {
				return nil, err
			}
			x.Args[i] = sub
		}
		return x, nil
	}
	return nil, fmt.Errorf("%s: unknown expression node %T", pos, e)
}

// Normalize hoists every call out of expression position so that calls occur
// only as top-level CallStmts (`x = f(a);` or `f(a);`). Nested calls become
// assignments to fresh temporaries. Loop conditions may not contain calls
// (hoisting one would change evaluation timing); Normalize reports an error
// for those.
func Normalize(prog *Program) error {
	n := &normalizer{prog: prog}
	for _, fn := range prog.Funcs {
		n.fn = fn
		n.newDecls = nil
		if err := n.block(fn.Body); err != nil {
			return err
		}
		if len(n.newDecls) > 0 {
			fn.Body.Stmts = append(n.newDecls, fn.Body.Stmts...)
		}
	}
	return Validate(prog)
}

type normalizer struct {
	prog     *Program
	fn       *FuncDecl
	tempSeq  int
	newDecls []Stmt
}

func (n *normalizer) newTemp(pos Pos) string {
	n.tempSeq++
	name := fmt.Sprintf("_t%d", n.tempSeq)
	n.newDecls = append(n.newDecls, &DeclStmt{
		StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
		Name:     name,
	})
	return name
}

func (n *normalizer) block(b *Block) error {
	var out []Stmt
	for _, s := range b.Stmts {
		pre, repl, err := n.stmt(s)
		if err != nil {
			return err
		}
		out = append(out, pre...)
		out = append(out, repl)
	}
	b.Stmts = out
	return nil
}

// stmt returns hoisted call statements to insert before s, and s itself
// (possibly rewritten).
func (n *normalizer) stmt(s Stmt) (pre []Stmt, repl Stmt, err error) {
	pos := s.Base().Pos
	switch x := s.(type) {
	case *AssignStmt:
		// `x = f(...);` becomes a CallStmt directly.
		if c, ok := x.RHS.(*CallExpr); ok {
			args, p, err := n.hoistAll(c.Args, pos)
			if err != nil {
				return nil, nil, err
			}
			return p, &CallStmt{StmtBase: x.StmtBase, Target: x.LHS, Callee: c.Callee, Args: args, Indirect: c.Indirect}, nil
		}
		e, p, err := n.hoist(x.RHS, pos)
		if err != nil {
			return nil, nil, err
		}
		x.RHS = e
		return p, x, nil

	case *DeclStmt:
		if c, ok := x.Init.(*CallExpr); ok {
			args, p, err := n.hoistAll(c.Args, pos)
			if err != nil {
				return nil, nil, err
			}
			x.Init = nil
			call := &CallStmt{
				StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
				Target:   x.Name, Callee: c.Callee, Args: args, Indirect: c.Indirect,
			}
			return append(p, x), call, nil
		}
		if x.Init != nil {
			e, p, err := n.hoist(x.Init, pos)
			if err != nil {
				return nil, nil, err
			}
			x.Init = e
			return p, x, nil
		}
		return nil, x, nil

	case *CallStmt:
		args, p, err := n.hoistAll(x.Args, pos)
		if err != nil {
			return nil, nil, err
		}
		x.Args = args
		return p, x, nil

	case *IfStmt:
		e, p, err := n.hoist(x.Cond, pos)
		if err != nil {
			return nil, nil, err
		}
		x.Cond = e
		if err := n.block(x.Then); err != nil {
			return nil, nil, err
		}
		if x.Else != nil {
			if err := n.block(x.Else); err != nil {
				return nil, nil, err
			}
		}
		return p, x, nil

	case *WhileStmt:
		if HasCall(x.Cond) {
			return nil, nil, fmt.Errorf("%s: calls in while conditions are not supported by MicroC; assign to a variable inside the loop", pos)
		}
		if err := n.block(x.Body); err != nil {
			return nil, nil, err
		}
		return nil, x, nil

	case *ReturnStmt:
		if x.Value != nil {
			e, p, err := n.hoist(x.Value, pos)
			if err != nil {
				return nil, nil, err
			}
			x.Value = e
			return p, x, nil
		}
		return nil, x, nil

	case *PrintfStmt:
		args, p, err := n.hoistAll(x.Args, pos)
		if err != nil {
			return nil, nil, err
		}
		x.Args = args
		return p, x, nil
	}
	return nil, s, nil
}

func (n *normalizer) hoistAll(es []Expr, pos Pos) ([]Expr, []Stmt, error) {
	var pre []Stmt
	out := make([]Expr, len(es))
	for i, e := range es {
		r, p, err := n.hoist(e, pos)
		if err != nil {
			return nil, nil, err
		}
		pre = append(pre, p...)
		out[i] = r
	}
	return out, pre, nil
}

// hoist rewrites e so it contains no CallExpr, emitting temp-assigning
// CallStmts in evaluation order.
func (n *normalizer) hoist(e Expr, pos Pos) (Expr, []Stmt, error) {
	switch x := e.(type) {
	case nil, *IntLit, *VarRef, *FuncRef:
		return e, nil, nil
	case *Unary:
		sub, p, err := n.hoist(x.X, pos)
		if err != nil {
			return nil, nil, err
		}
		x.X = sub
		return x, p, nil
	case *Binary:
		l, p1, err := n.hoist(x.X, pos)
		if err != nil {
			return nil, nil, err
		}
		r, p2, err := n.hoist(x.Y, pos)
		if err != nil {
			return nil, nil, err
		}
		x.X, x.Y = l, r
		return x, append(p1, p2...), nil
	case *CallExpr:
		args, pre, err := n.hoistAll(x.Args, pos)
		if err != nil {
			return nil, nil, err
		}
		tmp := n.newTemp(pos)
		call := &CallStmt{
			StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
			Target:   tmp, Callee: x.Callee, Args: args, Indirect: x.Indirect,
		}
		return &VarRef{Name: tmp}, append(pre, call), nil
	}
	return nil, nil, fmt.Errorf("%s: unknown expression node %T", pos, e)
}

// Validate checks the invariants relied upon by the analysis pipeline:
// calls appear only as CallStmts, and all names resolve.
func Validate(prog *Program) error {
	for _, fn := range prog.Funcs {
		var bad Stmt
		WalkStmts(fn.Body, func(s Stmt) {
			if bad == nil && stmtHasCall(s) {
				bad = s
			}
		})
		if bad != nil {
			return fmt.Errorf("%s: internal error: call remains in expression position after normalization", bad.Base().Pos)
		}
	}
	return resolve(prog)
}

// stmtHasCall reports whether an expression s uses directly (StmtExprs)
// contains a CallExpr.
func stmtHasCall(s Stmt) bool {
	switch x := s.(type) {
	case *DeclStmt:
		return HasCall(x.Init)
	case *AssignStmt:
		return HasCall(x.RHS)
	case *CallStmt:
		return slices.ContainsFunc(x.Args, HasCall)
	case *IfStmt:
		return HasCall(x.Cond)
	case *WhileStmt:
		return HasCall(x.Cond)
	case *ReturnStmt:
		return HasCall(x.Value)
	case *PrintfStmt:
		return slices.ContainsFunc(x.Args, HasCall)
	}
	return false
}
