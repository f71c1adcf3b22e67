package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The front end that Parse replaced, kept verbatim apart from its names as
// the oracle for the on-demand lexer, the one-token-lookahead parser and
// the single-resolve normalizer: lexAll materializes every token, with a
// keyword map lookup per identifier, before the token-slice parser runs;
// resolve runs after the parse and again after normalization. Its one
// known fault is the normalizer's temporaries, which always take the
// names _t1, _t2, ...: a global of that name is shadowed, and a local or
// parameter of that name makes the second resolve fail.

type refToken struct {
	kind tokenKind
	text string
	pos  Pos
}

var keywords = map[string]bool{
	"int": true, "void": true, "fnptr": true, "if": true, "else": true,
	"while": true, "return": true, "break": true, "continue": true,
	"printf": true, "scanf": true,
}

// multi-char punctuation, longest first.
var punct2 = []string{"==", "!=", "<=", ">=", "&&", "||"}

// refLexer turns MicroC source text into tokens.
type refLexer struct {
	src  string
	off  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer { return &refLexer{src: src, line: 1, col: 1} }

func (lx *refLexer) errorf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

func (lx *refLexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *refLexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *refLexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '*':
			pos := Pos{lx.line, lx.col}
			lx.advance()
			lx.advance()
			for {
				if lx.off+1 >= len(lx.src) {
					return lx.errorf(pos, "unterminated block comment")
				}
				if lx.peekByte() == '*' && lx.src[lx.off+1] == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// next scans and returns the next token.
func (lx *refLexer) next() (refToken, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return refToken{}, err
	}
	pos := Pos{lx.line, lx.col}
	if lx.off >= len(lx.src) {
		return refToken{kind: tokEOF, pos: pos}, nil
	}
	c := lx.peekByte()
	switch {
	case c == '_' || unicode.IsLetter(rune(c)):
		start := lx.off
		for lx.off < len(lx.src) {
			b := lx.peekByte()
			if b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b)) {
				lx.advance()
			} else {
				break
			}
		}
		text := lx.src[start:lx.off]
		if keywords[text] {
			return refToken{kind: tokKeyword, text: text, pos: pos}, nil
		}
		return refToken{kind: tokIdent, text: text, pos: pos}, nil

	case unicode.IsDigit(rune(c)):
		start := lx.off
		for lx.off < len(lx.src) && unicode.IsDigit(rune(lx.peekByte())) {
			lx.advance()
		}
		return refToken{kind: tokInt, text: lx.src[start:lx.off], pos: pos}, nil

	case c == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return refToken{}, lx.errorf(pos, "unterminated string literal")
			}
			b := lx.advance()
			if b == '"' {
				break
			}
			if b == '\\' {
				if lx.off >= len(lx.src) {
					return refToken{}, lx.errorf(pos, "unterminated escape")
				}
				e := lx.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"':
					sb.WriteByte(e)
				case '%':
					sb.WriteString("%%")
				default:
					return refToken{}, lx.errorf(pos, "unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(b)
		}
		return refToken{kind: tokString, text: sb.String(), pos: pos}, nil
	}

	for _, p := range punct2 {
		if strings.HasPrefix(lx.src[lx.off:], p) {
			lx.advance()
			lx.advance()
			return refToken{kind: tokPunct, text: p, pos: pos}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '(', ')', '{', '}', ',', ';', '&':
		lx.advance()
		return refToken{kind: tokPunct, text: string(c), pos: pos}, nil
	}
	return refToken{}, lx.errorf(pos, "unexpected character %q", c)
}

// lexAll scans the entire source.
func lexAll(src string) ([]refToken, error) {
	lx := newRefLexer(src)
	var toks []refToken
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// referenceParse is the front end Parse replaced: it lexes the whole
// source into a token slice, parses it, resolves names, normalizes, and
// resolves again.
func referenceParse(src string) (*Program, error) {
	prog, err := referenceParseRaw(src)
	if err != nil {
		return nil, err
	}
	if err := referenceNormalize(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// referenceParseRaw parses without normalization.
func referenceParseRaw(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks, prog: NewProgram()}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if err := resolve(p.prog); err != nil {
		return nil, err
	}
	return p.prog, nil
}

type refParser struct {
	toks []refToken
	i    int
	prog *Program
}

func (p *refParser) cur() refToken { return p.toks[p.i] }

func (p *refParser) advance() refToken {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *refParser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *refParser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errorf("expected %q, found %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *refParser) atPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *refParser) atKeyword(s string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == s
}

func (p *refParser) expectIdent() (string, Pos, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", t.pos, p.errorf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, t.pos, nil
}

func (p *refParser) parseProgram() error {
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

func (p *refParser) parseFunc(name string, pos Pos, returnsValue bool) (*FuncDecl, error) {
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

func (p *refParser) parseBlock() (*Block, error) {
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

func (p *refParser) base(pos Pos) StmtBase {
	return StmtBase{ID: p.prog.NewID(), Pos: pos}
}

func (p *refParser) parseStmt() (Stmt, error) {
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

func (p *refParser) parseArgs() ([]Expr, error) {
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

func (p *refParser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *refParser) parseBinary(minPrec int) (Expr, error) {
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

func (p *refParser) parseUnary() (Expr, error) {
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

func (p *refParser) parsePrimary() (Expr, error) {
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

// referenceNormalize hoists every call out of expression position so that
// calls occur only as top-level CallStmts (`x = f(a);` or `f(a);`). Nested
// calls become assignments to fresh temporaries. Loop conditions may not
// contain calls (hoisting one would change evaluation timing);
// referenceNormalize reports an error for those.
func referenceNormalize(prog *Program) error {
	n := &refNormalizer{prog: prog}
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
	return referenceValidate(prog)
}

type refNormalizer struct {
	prog     *Program
	fn       *FuncDecl
	tempSeq  int
	newDecls []Stmt
}

func (n *refNormalizer) newTemp(pos Pos) string {
	n.tempSeq++
	name := fmt.Sprintf("_t%d", n.tempSeq)
	n.newDecls = append(n.newDecls, &DeclStmt{
		StmtBase: StmtBase{ID: n.prog.NewID(), Pos: pos},
		Name:     name,
	})
	return name
}

func (n *refNormalizer) block(b *Block) error {
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
func (n *refNormalizer) stmt(s Stmt) (pre []Stmt, repl Stmt, err error) {
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

func (n *refNormalizer) hoistAll(es []Expr, pos Pos) ([]Expr, []Stmt, error) {
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
func (n *refNormalizer) hoist(e Expr, pos Pos) (Expr, []Stmt, error) {
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

// referenceValidate checks that calls appear only as CallStmts, and
// resolves the program again.
func referenceValidate(prog *Program) error {
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
