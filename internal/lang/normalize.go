package lang

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// scope holds the symbol information name resolution consults: one
// symbol per name, so each reference costs one map lookup. The program's
// globals and functions are entered once; a parameter or local is entered
// with the stamp of its function, so moving to the next function clears
// nothing.
type scope struct {
	names map[string]int32 // name -> index in syms
	syms  []symbol
	fn    *FuncDecl
	stamp int32 // 1 + the index of fn in Program.Funcs
}

// symbol is what one name denotes.
type symbol struct {
	fn     *FuncDecl // the function of this name, or nil
	global bool
	gFnptr bool  // the global holds function values
	local  int32 // the stamp of the function with a param or local of this name
	lFnptr bool  // that param or local holds function values
}

// declare returns name's symbol, entering an empty one if name is new. The
// pointer is valid until the next declare.
func (sc *scope) declare(name string) *symbol {
	i, ok := sc.names[name]
	if !ok {
		i = int32(len(sc.syms))
		sc.names[name] = i
		sc.syms = append(sc.syms, symbol{})
	}
	return &sc.syms[i]
}

// lookup returns name's symbol; a name never declared has the zero symbol.
func (sc *scope) lookup(name string) symbol {
	if i, ok := sc.names[name]; ok {
		return sc.syms[i]
	}
	return symbol{}
}

// local reports whether s is a param or local of the current function.
func (sc *scope) local(s symbol) bool { return s.local == sc.stamp }

// known reports whether s is visible in the scope (local, param, or global).
func (sc *scope) known(s symbol) bool { return sc.local(s) || s.global }

// fnptr reports whether s may hold a function value: an fnptr param or
// local, or an fnptr global.
func (sc *scope) fnptr(s symbol) bool { return sc.local(s) && s.lFnptr || s.gFnptr }

// enter makes fn, the i-th function, current, entering and checking its
// params and locals.
func (sc *scope) enter(i int, fn *FuncDecl) error {
	sc.fn, sc.stamp = fn, int32(i+1)
	for _, pm := range fn.Params {
		s := sc.declare(pm.Name)
		if s.local == sc.stamp {
			return fmt.Errorf("%s: duplicate parameter %q in %s", fn.Pos, pm.Name, fn.Name)
		}
		if s.fn != nil {
			return fmt.Errorf("%s: parameter %q shadows a function", fn.Pos, pm.Name)
		}
		s.local, s.lFnptr = sc.stamp, pm.IsFnPtr
	}
	var err error
	WalkStmts(fn.Body, func(st Stmt) {
		d, ok := st.(*DeclStmt)
		if !ok || err != nil {
			return
		}
		s := sc.declare(d.Name)
		if s.local == sc.stamp {
			err = fmt.Errorf("%s: duplicate local %q in %s (MicroC locals have flat function scope)", d.Pos, d.Name, fn.Name)
			return
		}
		if s.fn != nil {
			err = fmt.Errorf("%s: local %q shadows a function", d.Pos, d.Name)
			return
		}
		s.local, s.lFnptr = sc.stamp, d.IsFnPtr
	})
	return err
}

// resolve performs name resolution on a freshly parsed program: it converts
// variable references that name functions into FuncRefs, classifies calls as
// direct or indirect, and checks declarations, arities, and main's shape.
func resolve(prog *Program) error {
	sc := &scope{names: make(map[string]int32, len(prog.Globals)+len(prog.Funcs))}
	for _, g := range prog.Globals {
		s := sc.declare(g.Name)
		if s.global {
			return fmt.Errorf("%s: duplicate global %q", g.Pos, g.Name)
		}
		s.global, s.gFnptr = true, g.IsFnPtr
	}
	for _, f := range prog.Funcs {
		s := sc.declare(f.Name)
		if s.fn != nil {
			return fmt.Errorf("%s: duplicate function %q", f.Pos, f.Name)
		}
		if s.global {
			return fmt.Errorf("%s: function %q collides with a global", f.Pos, f.Name)
		}
		s.fn = f
	}
	if m := sc.lookup("main").fn; m == nil {
		return fmt.Errorf("program has no main function")
	} else if len(m.Params) != 0 {
		return fmt.Errorf("%s: main must take no parameters", m.Pos)
	}

	for i, fn := range prog.Funcs {
		if err := sc.enter(i, fn); err != nil {
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
		if !sc.known(sc.lookup(x.LHS)) {
			return fmt.Errorf("%s: assignment to undeclared variable %q", pos, x.LHS)
		}
		e, err := sc.resolveExpr(x.RHS, pos)
		if err != nil {
			return err
		}
		x.RHS = e
	case *CallStmt:
		callee, err := sc.resolveCallTarget(x.Callee, &x.Indirect, pos)
		if err != nil {
			return err
		}
		if !x.Indirect {
			if len(x.Args) != len(callee.Params) {
				return fmt.Errorf("%s: call to %s with %d args, want %d", pos, x.Callee, len(x.Args), len(callee.Params))
			}
			if x.Target != "" && !callee.ReturnsValue {
				return fmt.Errorf("%s: void function %s used in assignment", pos, x.Callee)
			}
		}
		if x.Target != "" && !sc.known(sc.lookup(x.Target)) {
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
		if !sc.known(sc.lookup(x.Var)) {
			return fmt.Errorf("%s: scanf into undeclared variable %q", pos, x.Var)
		}
	}
	return nil
}

// resolveCallTarget classifies a call of name, setting indirect, and
// returns the function a direct call calls.
func (sc *scope) resolveCallTarget(name string, indirect *bool, pos Pos) (*FuncDecl, error) {
	s := sc.lookup(name)
	switch {
	case s.fn != nil:
		*indirect = false
	case sc.fnptr(s):
		*indirect = true
	case sc.known(s):
		return nil, fmt.Errorf("%s: %q is not a function or fnptr", pos, name)
	default:
		return nil, fmt.Errorf("%s: call to undefined function %q", pos, name)
	}
	return s.fn, nil
}

func (sc *scope) resolveExpr(e Expr, pos Pos) (Expr, error) {
	switch x := e.(type) {
	case *IntLit:
		return x, nil
	case *VarRef:
		s := sc.lookup(x.Name)
		if s.fn != nil {
			return &FuncRef{Name: x.Name}, nil
		}
		if !sc.known(s) {
			return nil, fmt.Errorf("%s: undeclared variable %q", pos, x.Name)
		}
		return x, nil
	case *FuncRef:
		if sc.lookup(x.Name).fn == nil {
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
		callee, err := sc.resolveCallTarget(x.Callee, &x.Indirect, pos)
		if err != nil {
			return nil, err
		}
		if !x.Indirect {
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

// normalize hoists every call out of expression position so that calls
// occur only as top-level CallStmts (`x = f(a);` or `f(a);`). Nested calls
// become assignments to fresh temporaries, declared at the top of their
// function. Loop conditions may not contain calls (hoisting one would
// change evaluation timing); normalize reports an error for those.
//
// prog must be resolved, and it stays resolved: a hoisted call was
// resolved as the expression it replaces, and a temporary takes a name
// that no global, function, parameter or local of its function has. New
// nodes come from nd, and a block that hoists nothing keeps its list.
func normalize(prog *Program, nd *nodes) error {
	n := &normalizer{prog: prog, nd: nd}
	for _, fn := range prog.Funcs {
		n.fn = fn
		n.temps = n.temps[:0]
		n.taken, n.takenSeen = nil, false
		grew, err := n.list(fn.Body)
		if err != nil {
			return err
		}
		switch {
		case len(n.temps) > 0:
			n.replace(fn.Body, slices.Concat(n.temps, n.stack))
		case grew:
			n.replace(fn.Body, nd.stmts.Copy(n.stack))
		}
		n.stack = n.stack[:0]
	}
	return callsHoisted(prog)
}

type normalizer struct {
	prog    *Program
	nd      *nodes
	fn      *FuncDecl
	tempSeq int
	temps   []Stmt // the declarations of fn's temporaries
	// The statements of the blocks being rewritten, as a stack: a block's
	// hoisted calls and statements sit above its mark until it closes.
	stack []Stmt
	// The names spelled like a temporary ("_t...") that fn's temporaries
	// must avoid: the globals', the functions', and fn's parameters' and
	// locals'. They are collected when fn's first temporary needs them.
	taken     map[string]bool
	takenSeen bool
}

// take records name as taken if it is spelled like a temporary.
func (n *normalizer) take(name string) {
	if !strings.HasPrefix(name, "_t") {
		return
	}
	if n.taken == nil {
		n.taken = map[string]bool{}
	}
	n.taken[name] = true
}

// newTemp declares a fresh temporary at the top of the current function
// and returns its name: the next "_tN" in program order that is not
// taken.
func (n *normalizer) newTemp(pos Pos) string {
	if !n.takenSeen {
		n.takenSeen = true
		for _, g := range n.prog.Globals {
			n.take(g.Name)
		}
		for _, f := range n.prog.Funcs {
			n.take(f.Name)
		}
		for _, pm := range n.fn.Params {
			n.take(pm.Name)
		}
		// A declaration is replaced in its list only by a longer list
		// that still holds it, so the walk sees every declaration.
		WalkStmts(n.fn.Body, func(s Stmt) {
			if d, ok := s.(*DeclStmt); ok {
				n.take(d.Name)
			}
		})
	}
	var name string
	for {
		n.tempSeq++
		name = "_t" + strconv.Itoa(n.tempSeq)
		if !n.taken[name] {
			break
		}
	}
	n.temps = append(n.temps, n.nd.decls.New(DeclStmt{
		StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
		Name:     name,
	}))
	return name
}

// list rewrites b's statements and pushes them, each after the calls it
// hoists. A statement that hoists nothing but is replaced, like an
// assignment of a call by the call, is replaced in b's list in place; grew
// reports whether some statement hoisted a call, so that b needs a new,
// longer list.
func (n *normalizer) list(b *Block) (grew bool, err error) {
	for i, s := range b.Stmts {
		before := len(n.stack)
		repl, err := n.stmt(s)
		if err != nil {
			return false, err
		}
		if len(n.stack) == before {
			b.Stmts[i] = repl
		} else {
			grew = true
		}
		n.stack = append(n.stack, repl)
	}
	return grew, nil
}

// block rewrites a nested block.
func (n *normalizer) block(b *Block) error {
	if b == nil {
		return nil
	}
	mark := len(n.stack)
	grew, err := n.list(b)
	if err != nil {
		return err
	}
	if grew {
		n.replace(b, n.nd.stmts.Copy(n.stack[mark:]))
	}
	n.stack = n.stack[:mark]
	return nil
}

// replace gives b the list stmts. b's old list stays in its slab chunk
// for as long as the chunk lives, so it is cleared: the nodes only it
// held become garbage.
func (n *normalizer) replace(b *Block, stmts []Stmt) {
	clear(b.Stmts)
	b.Stmts = stmts
}

// stmt pushes the call statements hoisted out of s and returns s, or the
// statement that replaces it.
func (n *normalizer) stmt(s Stmt) (Stmt, error) {
	pos := s.Base().Pos
	var err error
	switch x := s.(type) {
	case *AssignStmt:
		// `x = f(...);` becomes a CallStmt directly.
		if c, ok := x.RHS.(*CallExpr); ok {
			if err := n.hoistAll(c.Args, pos); err != nil {
				return nil, err
			}
			return n.nd.calls.New(CallStmt{StmtBase: x.StmtBase, Target: x.LHS, Callee: c.Callee, Args: c.Args, Indirect: c.Indirect}), nil
		}
		x.RHS, err = n.hoist(x.RHS, pos)

	case *DeclStmt:
		// `int x = f(...);` becomes `int x;` and `x = f(...);`.
		if c, ok := x.Init.(*CallExpr); ok {
			if err := n.hoistAll(c.Args, pos); err != nil {
				return nil, err
			}
			x.Init = nil
			n.stack = append(n.stack, x)
			return n.nd.calls.New(CallStmt{
				StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
				Target:   x.Name, Callee: c.Callee, Args: c.Args, Indirect: c.Indirect,
			}), nil
		}
		x.Init, err = n.hoist(x.Init, pos)

	case *CallStmt:
		err = n.hoistAll(x.Args, pos)

	case *IfStmt:
		if x.Cond, err = n.hoist(x.Cond, pos); err == nil {
			if err = n.block(x.Then); err == nil {
				err = n.block(x.Else)
			}
		}

	case *WhileStmt:
		if HasCall(x.Cond) {
			return nil, fmt.Errorf("%s: calls in while conditions are not supported by MicroC; assign to a variable inside the loop", pos)
		}
		err = n.block(x.Body)

	case *ReturnStmt:
		x.Value, err = n.hoist(x.Value, pos)

	case *PrintfStmt:
		err = n.hoistAll(x.Args, pos)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// hoistAll rewrites each expression of es in place.
func (n *normalizer) hoistAll(es []Expr, pos Pos) error {
	for i, e := range es {
		r, err := n.hoist(e, pos)
		if err != nil {
			return err
		}
		es[i] = r
	}
	return nil
}

// hoist rewrites e so it contains no CallExpr, pushing temp-assigning
// CallStmts in evaluation order.
func (n *normalizer) hoist(e Expr, pos Pos) (Expr, error) {
	switch x := e.(type) {
	case nil, *IntLit, *VarRef, *FuncRef:
		return e, nil
	case *Unary:
		sub, err := n.hoist(x.X, pos)
		if err != nil {
			return nil, err
		}
		x.X = sub
		return x, nil
	case *Binary:
		l, err := n.hoist(x.X, pos)
		if err != nil {
			return nil, err
		}
		r, err := n.hoist(x.Y, pos)
		if err != nil {
			return nil, err
		}
		x.X, x.Y = l, r
		return x, nil
	case *CallExpr:
		if err := n.hoistAll(x.Args, pos); err != nil {
			return nil, err
		}
		tmp := n.newTemp(pos)
		n.stack = append(n.stack, n.nd.calls.New(CallStmt{
			StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
			Target:   tmp, Callee: x.Callee, Args: x.Args, Indirect: x.Indirect,
		}))
		return n.nd.vars.New(VarRef{Name: tmp}), nil
	}
	return nil, fmt.Errorf("%s: unknown expression node %T", pos, e)
}

// Validate checks the invariants relied upon by the analysis pipeline:
// calls appear only as CallStmts, and all names resolve.
func Validate(prog *Program) error {
	if err := callsHoisted(prog); err != nil {
		return err
	}
	return resolve(prog)
}

// callsHoisted reports the first statement that still has a call in
// expression position.
func callsHoisted(prog *Program) error {
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
	return nil
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
