package lang

import (
	"fmt"
	"strconv"
)

// Parse parses MicroC source text, resolves names, and normalizes calls so
// that every call appears as a top-level CallStmt. The returned program is
// ready for SDG construction and interpretation.
func Parse(src string) (*Program, error) {
	prog, err := ParseRaw(src)
	if err != nil {
		return nil, err
	}
	if err := Normalize(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseRaw parses without normalization; calls may appear in expression
// position. Most callers want Parse.
func ParseRaw(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: NewProgram()}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if err := resolve(p.prog); err != nil {
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

type parser struct {
	toks []token
	i    int
	prog *Program
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errorf("expected %q, found %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *parser) atKeyword(s string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == s
}

func (p *parser) expectIdent() (string, Pos, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", t.pos, p.errorf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, t.pos, nil
}

func (p *parser) parseProgram() error {
	for p.cur().kind != tokEOF {
		if !p.atKeyword("int") && !p.atKeyword("void") && !p.atKeyword("fnptr") {
			return p.errorf("expected declaration, found %q", p.cur().text)
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
		p.prog.Globals = append(p.prog.Globals, &GlobalDecl{
			Pos: pos, Name: name, IsFnPtr: kw.text == "fnptr",
		})
	}
	return nil
}

func (p *parser) parseFunc(name string, pos Pos, returnsValue bool) (*FuncDecl, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []Param
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
			params = append(params, Param{Name: pn, IsFnPtr: isFnPtr})
			if !p.atPunct(",") {
				break
			}
			p.advance()
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: pos, Name: name, Params: params, ReturnsValue: returnsValue, Body: body}, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.atPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // consume }
	return b, nil
}

func (p *parser) base(pos Pos) StmtBase {
	return StmtBase{ID: p.prog.NewID(), Pos: pos}
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atKeyword("int") || p.atKeyword("fnptr"):
		isFnPtr := t.text == "fnptr"
		p.advance()
		name, pos, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := &DeclStmt{StmtBase: p.base(pos), Name: name, IsFnPtr: isFnPtr}
		if p.atPunct("=") {
			p.advance()
			s.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case p.atKeyword("if"):
		p.advance()
		s := &IfStmt{StmtBase: p.base(t.pos)}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var err error
		s.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s.Then, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
		if p.atKeyword("else") {
			p.advance()
			if p.atKeyword("if") {
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				s.Else = &Block{Stmts: []Stmt{inner}}
			} else {
				s.Else, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return s, nil

	case p.atKeyword("while"):
		p.advance()
		s := &WhileStmt{StmtBase: p.base(t.pos)}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var err error
		s.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s.Body, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
		return s, nil

	case p.atKeyword("return"):
		p.advance()
		s := &ReturnStmt{StmtBase: p.base(t.pos)}
		if !p.atPunct(";") {
			var err error
			s.Value, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case p.atKeyword("break"):
		p.advance()
		return &BreakStmt{StmtBase: p.base(t.pos)}, p.expectPunct(";")

	case p.atKeyword("continue"):
		p.advance()
		return &ContinueStmt{StmtBase: p.base(t.pos)}, p.expectPunct(";")

	case p.atKeyword("printf"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().kind != tokString {
			return nil, p.errorf("printf requires a string literal format")
		}
		s := &PrintfStmt{StmtBase: p.base(t.pos), Format: p.advance().text}
		for p.atPunct(",") {
			p.advance()
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Args = append(s.Args, a)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")

	case p.atKeyword("scanf"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().kind != tokString {
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

	case t.kind == tokIdent:
		name, pos, _ := p.expectIdent()
		if p.atPunct("=") {
			p.advance()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{StmtBase: p.base(pos), LHS: name, RHS: rhs}, p.expectPunct(";")
		}
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallStmt{StmtBase: p.base(pos), Callee: name, Args: args}, p.expectPunct(";")
		}
		return nil, p.errorf("expected '=' or '(' after identifier %q", name)
	}
	return nil, p.errorf("unexpected token %q", t.text)
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.atPunct(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.atPunct(",") {
				break
			}
			p.advance()
		}
	}
	return args, p.expectPunct(")")
}

// Operator precedence, low to high.
var binaryPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binaryPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.advance().text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.text, X: x}, nil
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
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return &IntLit{Value: v}, nil
	case t.kind == tokIdent:
		name := p.advance().text
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Callee: name, Args: args}, nil
		}
		return &VarRef{Name: name}, nil
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
