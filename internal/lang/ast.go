// Package lang implements MicroC, the small C-like language analyzed by this
// repository's slicers: lexer, parser, name resolution, call normalization,
// and a pretty-printer.
//
// MicroC has a single scalar type (int), function pointers (fnptr), global
// variables, value parameters, if/while/break/continue/return control flow,
// and the library procedures printf and scanf. It is rich enough to exercise
// every system-dependence-graph feature used by the specialization-slicing
// paper (globals as hidden parameters, recursion, library calls, indirect
// calls) while keeping the front end small.
package lang

import "fmt"

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// NodeID uniquely identifies a statement node within a Program. Emitted
// (sliced) programs carry the originating node in StmtBase.Origin so that
// dynamic behavior can be compared statement-by-statement across slices.
type NodeID int

// NoNode is the zero NodeID, meaning "no statement".
const NoNode NodeID = 0

// Program is a parsed MicroC translation unit.
type Program struct {
	Globals []*GlobalDecl
	Funcs   []*FuncDecl

	nextID NodeID

	// canon is what Canonicalize recorded while printing the program; nil
	// for a program it has not printed. CloneProgram and NewProgram never
	// carry it.
	canon *canonRecord
}

// canonRecord holds the per-version facts Canonicalize learns in its one
// walk: each function's ProcHash, indexed like Funcs, and whether any call
// is indirect.
type canonRecord struct {
	hashes   []uint64
	indirect bool
}

// NewProgram returns an empty program ready for programmatic construction.
func NewProgram() *Program { return &Program{} }

// NewID allocates a fresh statement ID.
func (p *Program) NewID() NodeID {
	p.nextID++
	return p.nextID
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// HasIndirectCall reports whether any call statement of p calls through a
// function pointer. A program Canonicalize printed answers from its
// record; any other is walked.
func (p *Program) HasIndirectCall() bool {
	if p.canon != nil {
		return p.canon.indirect
	}
	found := false
	for _, f := range p.Funcs {
		WalkStmts(f.Body, func(s Stmt) {
			if c, ok := s.(*CallStmt); ok && c.Indirect {
				found = true
			}
		})
		if found {
			return true
		}
	}
	return false
}

// GlobalDecl declares a global variable. Globals are initialized to zero.
type GlobalDecl struct {
	Pos     Pos
	Name    string
	IsFnPtr bool
}

// Param is a formal parameter of a function.
type Param struct {
	Name    string
	IsFnPtr bool
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos          Pos
	Name         string
	Params       []Param
	ReturnsValue bool // declared int (true) or void (false)
	Body         *Block
}

// Block is a brace-delimited statement sequence.
type Block struct {
	Stmts []Stmt
}

// Stmt is implemented by all MicroC statement nodes.
type Stmt interface {
	Base() *StmtBase
	stmtNode()
}

// StmtBase carries the identity and position shared by all statements.
type StmtBase struct {
	ID     NodeID
	Pos    Pos
	Origin NodeID // original statement for nodes created by slicing; NoNode if primary
}

// OriginID returns the identity of the original statement this node was
// derived from: Origin when set, otherwise the node's own ID.
func (b *StmtBase) OriginID() NodeID {
	if b.Origin != NoNode {
		return b.Origin
	}
	return b.ID
}

func (b *StmtBase) Base() *StmtBase { return b }

// DeclStmt declares a function-scoped local variable with an optional
// initializer. MicroC locals have flat function scope, as if hoisted.
type DeclStmt struct {
	StmtBase
	Name    string
	IsFnPtr bool
	Init    Expr // may be nil
}

// AssignStmt assigns RHS to the variable LHS.
type AssignStmt struct {
	StmtBase
	LHS string
	RHS Expr
}

// CallStmt invokes a user-defined procedure, optionally assigning the return
// value: `x = f(a, b);` or `f(a, b);`. After normalization, calls appear only
// as CallStmts. Indirect marks a call through a function-pointer variable.
type CallStmt struct {
	StmtBase
	Target   string // "" when the return value is discarded
	Callee   string // function name, or fnptr variable name when Indirect
	Args     []Expr
	Indirect bool
}

// IfStmt is a two-armed conditional; Else may be nil.
type IfStmt struct {
	StmtBase
	Cond Expr
	Then *Block
	Else *Block
}

// WhileStmt is a pre-tested loop.
type WhileStmt struct {
	StmtBase
	Cond Expr
	Body *Block
}

// ReturnStmt returns from the enclosing function; Value may be nil.
type ReturnStmt struct {
	StmtBase
	Value Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ StmtBase }

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{ StmtBase }

// PrintfStmt calls the printf library procedure. Only %d directives are
// interpreted; one per argument.
type PrintfStmt struct {
	StmtBase
	Format string
	Args   []Expr
}

// ScanfStmt calls the scanf library procedure, reading one int into Var.
type ScanfStmt struct {
	StmtBase
	Format string
	Var    string
}

func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*CallStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*PrintfStmt) stmtNode()   {}
func (*ScanfStmt) stmtNode()    {}

// Expr is implemented by all MicroC expression nodes. Expressions carry no
// identity: dependence-graph vertices exist at statement granularity.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// VarRef references a variable (local, parameter, or global).
type VarRef struct{ Name string }

// FuncRef references a function by name as a value (`p = f;` or `p = &f;`).
type FuncRef struct{ Name string }

// Unary applies "-" or "!".
type Unary struct {
	Op string
	X  Expr
}

// Binary applies an arithmetic, comparison, or logical operator.
// "&&" and "||" are evaluated strictly (no short-circuit); after
// normalization expressions are call-free, so this is semantics-preserving.
type Binary struct {
	Op   string
	X, Y Expr
}

// CallExpr is a call in expression position. It exists only between parsing
// and normalization; Parse hoists every CallExpr into a CallStmt.
type CallExpr struct {
	Callee   string
	Args     []Expr
	Indirect bool
}

func (*IntLit) exprNode()   {}
func (*VarRef) exprNode()   {}
func (*FuncRef) exprNode()  {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*CallExpr) exprNode() {}

// WalkExprs calls fn on e and every sub-expression, pre-order.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		WalkExprs(x.X, fn)
	case *Binary:
		WalkExprs(x.X, fn)
		WalkExprs(x.Y, fn)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	}
}

// ExprVars returns the variable names referenced by e (not function refs),
// in first-occurrence order.
func ExprVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	WalkExprs(e, func(x Expr) {
		if v, ok := x.(*VarRef); ok && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	})
	return out
}

// HasCall reports whether e contains a CallExpr.
func HasCall(e Expr) bool {
	switch x := e.(type) {
	case *Unary:
		return HasCall(x.X)
	case *Binary:
		return HasCall(x.X) || HasCall(x.Y)
	case *CallExpr:
		return true
	}
	return false
}

// StmtExprs returns the expressions directly used by s (not recursing into
// nested blocks).
func StmtExprs(s Stmt) []Expr {
	switch x := s.(type) {
	case *DeclStmt:
		if x.Init != nil {
			return []Expr{x.Init}
		}
	case *AssignStmt:
		return []Expr{x.RHS}
	case *CallStmt:
		return x.Args
	case *IfStmt:
		return []Expr{x.Cond}
	case *WhileStmt:
		return []Expr{x.Cond}
	case *ReturnStmt:
		if x.Value != nil {
			return []Expr{x.Value}
		}
	case *PrintfStmt:
		return x.Args
	}
	return nil
}

// WalkStmts calls fn on every statement in the block, pre-order, recursing
// into nested blocks.
func WalkStmts(b *Block, fn func(Stmt)) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		fn(s)
		switch x := s.(type) {
		case *IfStmt:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		case *WhileStmt:
			WalkStmts(x.Body, fn)
		}
	}
}

// NumStmts returns the number of statements of f, len(f.Stmts()), without
// listing them.
func (f *FuncDecl) NumStmts() int {
	n := 0
	WalkStmts(f.Body, func(Stmt) { n++ })
	return n
}

// Stmts returns every statement of f in pre-order.
func (f *FuncDecl) Stmts() []Stmt {
	var out []Stmt
	WalkStmts(f.Body, func(s Stmt) { out = append(out, s) })
	return out
}
