package lang

import (
	"strconv"
	"strings"
	"unsafe"
)

// Print renders the program as MicroC source text. The output reparses to an
// equivalent program (modulo normalization temporaries already present).
//
// Print, ExprString and ProcHash share one append-based printer: every
// statement and expression is written straight into a single
// strings.Builder, with no fmt call and no intermediate string per
// expression. The rendered text is a stable contract — the server's
// content key hashes it and ProcHash drives Advance's diff — so the format
// must not change.
func Print(prog *Program) string {
	var p printer
	p.program(prog, nil)
	return p.sb.String()
}

// Canonicalize renders prog like Print and, in the same walk, renumbers
// it as a parse of that text would: statement IDs from 1 in print order,
// no Origin, and each global, function and statement at its position in
// the text. A program Parse returned then deep-equals
// Parse(Canonicalize(prog)), so a caller holding a parsed program gets
// its normalized source and the normalized program without a second
// parse.
//
// The walk also records, on prog, each function's ProcHash (the FNV-1a of
// the bytes it printed for the function) and whether any call is
// indirect, so ProcHashes and HasIndirectCall answer without another
// pass. The record describes the program as printed: a caller must not
// edit prog's AST afterwards.
func Canonicalize(prog *Program) string {
	p := printer{canon: prog}
	prog.nextID = 0
	prog.canon = nil
	rec := &canonRecord{hashes: make([]uint64, len(prog.Funcs))}
	p.program(prog, rec)
	prog.canon = rec
	return p.sb.String()
}

// program prints prog; with rec set it records each function's hash and
// whether a call is indirect.
func (p *printer) program(prog *Program, rec *canonRecord) {
	for _, g := range prog.Globals {
		if p.canon != nil {
			g.Pos = p.at(typeWidth(g.IsFnPtr) + 2)
		}
		p.typ(g.IsFnPtr)
		p.sb.WriteByte(' ')
		p.sb.WriteString(g.Name)
		p.sb.WriteString(";\n")
	}
	if len(prog.Globals) > 0 {
		p.sb.WriteByte('\n')
	}
	for i, f := range prog.Funcs {
		if i > 0 {
			p.sb.WriteByte('\n')
		}
		start := len(p.sb.b)
		p.fn(f)
		if rec != nil {
			h := newFNV()
			h.bytes(p.sb.b[start:])
			rec.hashes[i] = uint64(h)
		}
	}
	if rec != nil {
		rec.indirect = p.indirect
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.sb.String()
}

// printer appends MicroC source text to one buffer. With canon set
// (Canonicalize), it also numbers and positions the program it prints.
type printer struct {
	sb    textBuf
	canon *Program
	line  int // the lines ended in sb[:seen]
	seen  int
	// indirect records that a call through a function pointer was printed.
	indirect bool
}

// textBuf is the printer's output buffer. Like strings.Builder it hands
// out its text without a copy, and unlike it it can be emptied and
// refilled in its own storage, so ProcHashes prints procedure after
// procedure into one buffer.
type textBuf struct{ b []byte }

func (t *textBuf) WriteString(s string) { t.b = append(t.b, s...) }
func (t *textBuf) WriteByte(c byte) error {
	t.b = append(t.b, c)
	return nil
}
func (t *textBuf) Write(b []byte) { t.b = append(t.b, b...) }

// String returns the text written so far, sharing the buffer's storage:
// it is valid until the next reset.
func (t *textBuf) String() string { return unsafe.String(unsafe.SliceData(t.b), len(t.b)) }

// reset empties the buffer, keeping its storage.
func (t *textBuf) reset() { t.b = t.b[:0] }

// at returns the position of column col on the line being written.
func (p *printer) at(col int) Pos {
	s := p.sb.String()
	p.line += strings.Count(s[p.seen:], "\n")
	p.seen = len(s)
	return Pos{p.line + 1, col}
}

// typeWidth is the length of the type keyword typ writes.
func typeWidth(fnptr bool) int {
	if fnptr {
		return len("fnptr")
	}
	return len("int")
}

func (p *printer) typ(fnptr bool) {
	if fnptr {
		p.sb.WriteString("fnptr")
	} else {
		p.sb.WriteString("int")
	}
}

func (p *printer) fn(f *FuncDecl) {
	if p.canon != nil {
		col := len("void ") + 1
		if f.ReturnsValue {
			col = len("int ") + 1
		}
		f.Pos = p.at(col)
	}
	if f.ReturnsValue {
		p.sb.WriteString("int ")
	} else {
		p.sb.WriteString("void ")
	}
	p.sb.WriteString(f.Name)
	p.sb.WriteByte('(')
	for i, pm := range f.Params {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.typ(pm.IsFnPtr)
		p.sb.WriteByte(' ')
		p.sb.WriteString(pm.Name)
	}
	p.sb.WriteString(") {\n")
	p.block(f.Body, 1)
	p.sb.WriteString("}\n")
}

func (p *printer) block(b *Block, depth int) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		p.stmt(s, depth)
	}
}

// indent is enough spaces for 32 levels of nesting; deeper code writes it
// in pieces.
const indent = "                                                                "

func (p *printer) indent(depth int) {
	for n := 2 * depth; n > 0; n -= len(indent) {
		p.sb.WriteString(indent[:min(n, len(indent))])
	}
}

// stmt renders s at the given nesting depth. The Stmt interface is sealed
// (stmtNode is unexported), so the switch covers every statement.
func (p *printer) stmt(s Stmt, depth int) {
	p.indent(depth)
	if p.canon != nil {
		// A declaration is positioned at its name, after the type.
		col := 2*depth + 1
		if d, ok := s.(*DeclStmt); ok {
			col += typeWidth(d.IsFnPtr) + 1
		}
		*s.Base() = StmtBase{ID: p.canon.NewID(), Pos: p.at(col)}
	}
	switch x := s.(type) {
	case *DeclStmt:
		p.typ(x.IsFnPtr)
		p.sb.WriteByte(' ')
		p.sb.WriteString(x.Name)
		if x.Init != nil {
			p.sb.WriteString(" = ")
			p.expr(x.Init, 0)
		}
	case *AssignStmt:
		p.sb.WriteString(x.LHS)
		p.sb.WriteString(" = ")
		p.expr(x.RHS, 0)
	case *CallStmt:
		p.indirect = p.indirect || x.Indirect
		if x.Target != "" {
			p.sb.WriteString(x.Target)
			p.sb.WriteString(" = ")
		}
		p.call(x.Callee, x.Args)
	case *IfStmt:
		p.sb.WriteString("if (")
		p.expr(x.Cond, 0)
		p.sb.WriteString(") {\n")
		p.block(x.Then, depth+1)
		if x.Else != nil {
			p.indent(depth)
			p.sb.WriteString("} else {\n")
			p.block(x.Else, depth+1)
		}
		p.indent(depth)
		p.sb.WriteString("}\n")
		return
	case *WhileStmt:
		p.sb.WriteString("while (")
		p.expr(x.Cond, 0)
		p.sb.WriteString(") {\n")
		p.block(x.Body, depth+1)
		p.indent(depth)
		p.sb.WriteString("}\n")
		return
	case *ReturnStmt:
		p.sb.WriteString("return")
		if x.Value != nil {
			p.sb.WriteByte(' ')
			p.expr(x.Value, 0)
		}
	case *BreakStmt:
		p.sb.WriteString("break")
	case *ContinueStmt:
		p.sb.WriteString("continue")
	case *PrintfStmt:
		p.sb.WriteString("printf(")
		p.quote(x.Format)
		for _, a := range x.Args {
			p.sb.WriteString(", ")
			p.expr(a, 0)
		}
		p.sb.WriteByte(')')
	case *ScanfStmt:
		p.sb.WriteString("scanf(")
		p.quote(x.Format)
		p.sb.WriteString(", &")
		p.sb.WriteString(x.Var)
		p.sb.WriteByte(')')
	}
	p.sb.WriteString(";\n")
}

func (p *printer) call(callee string, args []Expr) {
	p.sb.WriteString(callee)
	p.sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.expr(a, 0)
	}
	p.sb.WriteByte(')')
}

func (p *printer) quote(s string) {
	p.sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			p.sb.WriteString(`\n`)
		case '\t':
			p.sb.WriteString(`\t`)
		case '"':
			p.sb.WriteString(`\"`)
		case '\\':
			p.sb.WriteString(`\\`)
		default:
			p.sb.WriteByte(c)
		}
	}
	p.sb.WriteByte('"')
}

// expr renders e, parenthesized when its operator binds looser than the
// context's parentPrec. Like Stmt, the Expr interface is sealed; a nil
// expression renders as nothing.
func (p *printer) expr(e Expr, parentPrec int) {
	switch x := e.(type) {
	case *IntLit:
		var buf [20]byte
		p.sb.Write(strconv.AppendInt(buf[:0], x.Value, 10))
	case *VarRef:
		p.sb.WriteString(x.Name)
	case *FuncRef:
		p.sb.WriteByte('&')
		p.sb.WriteString(x.Name)
	case *Unary:
		p.sb.WriteString(x.Op)
		p.expr(x.X, 7)
	case *Binary:
		prec := precOf(x.Op)
		if prec < parentPrec {
			p.sb.WriteByte('(')
		}
		p.expr(x.X, prec)
		p.sb.WriteByte(' ')
		p.sb.WriteString(x.Op)
		p.sb.WriteByte(' ')
		p.expr(x.Y, prec+1)
		if prec < parentPrec {
			p.sb.WriteByte(')')
		}
	case *CallExpr:
		p.call(x.Callee, x.Args)
	}
}
