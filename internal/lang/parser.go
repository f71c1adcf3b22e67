package lang

import (
	"fmt"
	"strconv"
)

// Parse parses MicroC source text, resolves names, and normalizes calls so
// that every call appears as a top-level CallStmt. The returned program is
// ready for SDG construction and interpretation.
//
// The lexer runs on demand, one token ahead of the parser, and the AST's
// nodes and its block and argument lists come from slabs. A syntax error
// is reported only if the rest of the input lexes: otherwise the first
// lexical error is, wherever it lies.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src), prog: NewProgram(), nd: &nodes{}}
	p.advance()
	err := p.parseProgram()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		for {
			t, lerr := p.lx.next()
			if lerr != nil {
				return nil, lerr
			}
			if t.kind == tokEOF {
				return nil, err
			}
		}
	}
	if err := resolve(p.prog); err != nil {
		return nil, err
	}
	if err := normalize(p.prog, p.nd); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse parses src and panics on error. Intended for tests, examples,
// and generated workloads whose sources are known to be valid.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v", err))
	}
	return prog
}

// nodes are the slabs one parse takes its AST from. Normalization
// replaces every call expression, and every assignment of a call, so
// those come from slabs of their own, which no parsed program retains.
type nodes struct {
	globals     Slab[GlobalDecl]
	funcs       Slab[FuncDecl]
	params      Slab[Param]
	blocks      Slab[Block]
	stmts       Slab[Stmt]
	exprs       Slab[Expr]
	decls       Slab[DeclStmt]
	assigns     Slab[AssignStmt]
	calls       Slab[CallStmt]
	ifs         Slab[IfStmt]
	whiles      Slab[WhileStmt]
	returns     Slab[ReturnStmt]
	printfs     Slab[PrintfStmt]
	ints        Slab[IntLit]
	vars        Slab[VarRef]
	unarys      Slab[Unary]
	binarys     Slab[Binary]
	callExprs   Slab[CallExpr]   // replaced by normalization
	callAssigns Slab[AssignStmt] // `x = f(...);`, replaced by normalization
}

type parser struct {
	lx     lexer
	tok    token // the current token
	lexErr error // the first lexical error; the token is then a stand-in EOF
	prog   *Program
	nd     *nodes
	// Statements and expressions whose enclosing list is still open, as a
	// stack: a list is copied into its slab when it closes.
	stmts  []Stmt
	exprs  []Expr
	params []Param
}

// advance moves to the next token and returns the current one. After a
// lexical error every token is EOF, so the parse ends; Parse then reports
// the lexical error.
func (p *parser) advance() token {
	t := p.tok
	if p.lexErr == nil {
		next, err := p.lx.next()
		if err != nil {
			p.lexErr = err
			next = token{kind: tokEOF, pos: p.tok.pos}
		}
		p.tok = next
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return p.errorf("expected %q, found %q", s, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) atPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) atKeyword(s string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == s
}

func (p *parser) expectIdent() (string, Pos, error) {
	t := p.tok
	if t.kind != tokIdent {
		return "", t.pos, p.errorf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, t.pos, nil
}

func (p *parser) parseProgram() error {
	for p.tok.kind != tokEOF {
		if !p.atKeyword("int") && !p.atKeyword("void") && !p.atKeyword("fnptr") {
			return p.errorf("expected declaration, found %q", p.tok.text)
		}
		kw := p.advance()
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		if p.atPunct("(") {
			if kw.text == "fnptr" {
				return p.errorf("functions cannot return fnptr")
			}
			fn, err := p.parseFunc(name, pos, kw.text == "int")
			if err != nil {
				return err
			}
			p.prog.Funcs = append(p.prog.Funcs, fn)
			continue
		}
		if kw.text == "void" {
			return p.errorf("void is not a variable type")
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		p.prog.Globals = append(p.prog.Globals, p.nd.globals.New(GlobalDecl{
			Pos: pos, Name: name, IsFnPtr: kw.text == "fnptr",
		}))
	}
	return nil
}

func (p *parser) parseFunc(name string, pos Pos, returnsValue bool) (*FuncDecl, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.params = p.params[:0]
	if !p.atPunct(")") {
		for {
			isFnPtr := false
			switch {
			case p.atKeyword("int"):
				p.advance()
			case p.atKeyword("fnptr"):
				isFnPtr = true
				p.advance()
			default:
				return nil, p.errorf("expected parameter type")
			}
			pn, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			p.params = append(p.params, Param{Name: pn, IsFnPtr: isFnPtr})
			if !p.atPunct(",") {
				break
			}
			p.advance()
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	params := p.nd.params.Copy(p.params)
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return p.nd.funcs.New(FuncDecl{Pos: pos, Name: name, Params: params, ReturnsValue: returnsValue, Body: body}), nil
}

// closeBlock returns a block of the statements stacked since mark, and
// pops them.
func (p *parser) closeBlock(mark int) *Block {
	b := p.nd.blocks.New(Block{Stmts: p.nd.stmts.Copy(p.stmts[mark:])})
	p.stmts = p.stmts[:mark]
	return b
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for !p.atPunct("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.advance() // consume }
	return p.closeBlock(mark), nil
}

func (p *parser) base(pos Pos) StmtBase {
	return StmtBase{ID: p.prog.NewID(), Pos: pos}
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.tok
	if t.kind == tokIdent {
		return p.parseSimpleStmt()
	}
	if t.kind != tokKeyword {
		return nil, p.errorf("unexpected token %q", t.text)
	}
	switch t.text {
	case "int", "fnptr":
		isFnPtr := t.text == "fnptr"
		p.advance()
		name, pos, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := p.nd.decls.New(DeclStmt{StmtBase: p.base(pos), Name: name, IsFnPtr: isFnPtr})
		if p.atPunct("=") {
			p.advance()
			s.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case "if":
		p.advance()
		s := p.nd.ifs.New(IfStmt{StmtBase: p.base(t.pos)})
		var err error
		if s.Cond, err = p.parseCond(); err != nil {
			return nil, err
		}
		if s.Then, err = p.parseBlock(); err != nil {
			return nil, err
		}
		if p.atKeyword("else") {
			p.advance()
			if p.atKeyword("if") {
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				mark := len(p.stmts)
				p.stmts = append(p.stmts, inner)
				s.Else = p.closeBlock(mark)
			} else if s.Else, err = p.parseBlock(); err != nil {
				return nil, err
			}
		}
		return s, nil

	case "while":
		p.advance()
		s := p.nd.whiles.New(WhileStmt{StmtBase: p.base(t.pos)})
		var err error
		if s.Cond, err = p.parseCond(); err != nil {
			return nil, err
		}
		if s.Body, err = p.parseBlock(); err != nil {
			return nil, err
		}
		return s, nil

	case "return":
		p.advance()
		s := p.nd.returns.New(ReturnStmt{StmtBase: p.base(t.pos)})
		if !p.atPunct(";") {
			var err error
			if s.Value, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case "break":
		p.advance()
		return &BreakStmt{StmtBase: p.base(t.pos)}, p.expectPunct(";")

	case "continue":
		p.advance()
		return &ContinueStmt{StmtBase: p.base(t.pos)}, p.expectPunct(";")

	case "printf":
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("printf requires a string literal format")
		}
		s := p.nd.printfs.New(PrintfStmt{StmtBase: p.base(t.pos), Format: p.advance().text})
		mark := len(p.exprs)
		for p.atPunct(",") {
			p.advance()
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, a)
		}
		s.Args = p.closeExprs(mark)
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")

	case "scanf":
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("scanf requires a string literal format")
		}
		s := &ScanfStmt{StmtBase: p.base(t.pos), Format: p.advance().text}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectPunct("&"); err != nil {
			return nil, err
		}
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s.Var = name
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")
	}
	return nil, p.errorf("unexpected token %q", t.text)
}

// parseSimpleStmt parses an assignment or a call statement.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	name, pos, _ := p.expectIdent()
	if p.atPunct("=") {
		p.advance()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		slab := &p.nd.assigns
		if _, ok := rhs.(*CallExpr); ok {
			slab = &p.nd.callAssigns
		}
		return slab.New(AssignStmt{StmtBase: p.base(pos), LHS: name, RHS: rhs}), p.expectPunct(";")
	}
	if p.atPunct("(") {
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return p.nd.calls.New(CallStmt{StmtBase: p.base(pos), Callee: name, Args: args}), p.expectPunct(";")
	}
	return nil, p.errorf("expected '=' or '(' after identifier %q", name)
}

// parseCond parses a parenthesized if or while condition.
func (p *parser) parseCond() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return e, p.expectPunct(")")
}

// closeExprs returns the expressions stacked since mark, and pops them.
func (p *parser) closeExprs(mark int) []Expr {
	out := p.nd.exprs.Copy(p.exprs[mark:])
	p.exprs = p.exprs[:mark]
	return out
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	mark := len(p.exprs)
	if !p.atPunct(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, a)
			if !p.atPunct(",") {
				break
			}
			p.advance()
		}
	}
	return p.closeExprs(mark), p.expectPunct(")")
}

// precOf is the binding strength of a binary operator, low to high, or 0
// for a token that is not one.
func precOf(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=":
		return 3
	case "<", ">", "<=", ">=":
		return 4
	case "+", "-":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 0
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPunct {
		prec := precOf(p.tok.text)
		if prec == 0 || prec < minPrec {
			break
		}
		op := p.advance().text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = p.nd.binarys.New(Binary{Op: op, X: lhs, Y: rhs})
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.tok
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.nd.unarys.New(Unary{Op: t.text, X: x}), nil
	}
	if t.kind == tokPunct && t.text == "&" {
		p.advance()
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &FuncRef{Name: name}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.tok
	switch {
	case t.kind == tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return p.nd.ints.New(IntLit{Value: v}), nil
	case t.kind == tokIdent:
		name := p.advance().text
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.nd.callExprs.New(CallExpr{Callee: name, Args: args}), nil
		}
		return p.nd.vars.New(VarRef{Name: name}), nil
	case p.atPunct("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	}
	return nil, p.errorf("expected expression, found %q", t.text)
}
