package lang

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// referenceProcHash is ProcHash computed over the reference printer's
// rendering of f.
func referenceProcHash(f *FuncDecl) uint64 {
	h := fnv.New64a()
	var sb strings.Builder
	refPrintFunc(&sb, f)
	h.Write([]byte(sb.String()))
	return h.Sum64()
}

// referencePrint is the fmt-based printer that Print replaced, kept
// verbatim as the byte-identity oracle for the append-based one: it renders
// the program as MicroC source text.
func referencePrint(prog *Program) string {
	var sb strings.Builder
	for _, g := range prog.Globals {
		ty := "int"
		if g.IsFnPtr {
			ty = "fnptr"
		}
		fmt.Fprintf(&sb, "%s %s;\n", ty, g.Name)
	}
	if len(prog.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for i, f := range prog.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		refPrintFunc(&sb, f)
	}
	return sb.String()
}

func refPrintFunc(sb *strings.Builder, f *FuncDecl) {
	ret := "void"
	if f.ReturnsValue {
		ret = "int"
	}
	var params []string
	for _, p := range f.Params {
		ty := "int"
		if p.IsFnPtr {
			ty = "fnptr"
		}
		params = append(params, ty+" "+p.Name)
	}
	fmt.Fprintf(sb, "%s %s(%s) {\n", ret, f.Name, strings.Join(params, ", "))
	refPrintBlockBody(sb, f.Body, 1)
	sb.WriteString("}\n")
}

func refIndentOf(n int) string { return strings.Repeat("  ", n) }

func refPrintBlockBody(sb *strings.Builder, b *Block, depth int) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		refPrintStmt(sb, s, depth)
	}
}

func refPrintStmt(sb *strings.Builder, s Stmt, depth int) {
	ind := refIndentOf(depth)
	switch x := s.(type) {
	case *DeclStmt:
		ty := "int"
		if x.IsFnPtr {
			ty = "fnptr"
		}
		if x.Init != nil {
			fmt.Fprintf(sb, "%s%s %s = %s;\n", ind, ty, x.Name, referenceExprString(x.Init))
		} else {
			fmt.Fprintf(sb, "%s%s %s;\n", ind, ty, x.Name)
		}
	case *AssignStmt:
		fmt.Fprintf(sb, "%s%s = %s;\n", ind, x.LHS, referenceExprString(x.RHS))
	case *CallStmt:
		var args []string
		for _, a := range x.Args {
			args = append(args, referenceExprString(a))
		}
		call := fmt.Sprintf("%s(%s)", x.Callee, strings.Join(args, ", "))
		if x.Target != "" {
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, x.Target, call)
		} else {
			fmt.Fprintf(sb, "%s%s;\n", ind, call)
		}
	case *IfStmt:
		fmt.Fprintf(sb, "%sif (%s) {\n", ind, referenceExprString(x.Cond))
		refPrintBlockBody(sb, x.Then, depth+1)
		if x.Else != nil {
			fmt.Fprintf(sb, "%s} else {\n", ind)
			refPrintBlockBody(sb, x.Else, depth+1)
		}
		fmt.Fprintf(sb, "%s}\n", ind)
	case *WhileStmt:
		fmt.Fprintf(sb, "%swhile (%s) {\n", ind, referenceExprString(x.Cond))
		refPrintBlockBody(sb, x.Body, depth+1)
		fmt.Fprintf(sb, "%s}\n", ind)
	case *ReturnStmt:
		if x.Value != nil {
			fmt.Fprintf(sb, "%sreturn %s;\n", ind, referenceExprString(x.Value))
		} else {
			fmt.Fprintf(sb, "%sreturn;\n", ind)
		}
	case *BreakStmt:
		fmt.Fprintf(sb, "%sbreak;\n", ind)
	case *ContinueStmt:
		fmt.Fprintf(sb, "%scontinue;\n", ind)
	case *PrintfStmt:
		parts := []string{refQuoteString(x.Format)}
		for _, a := range x.Args {
			parts = append(parts, referenceExprString(a))
		}
		fmt.Fprintf(sb, "%sprintf(%s);\n", ind, strings.Join(parts, ", "))
	case *ScanfStmt:
		fmt.Fprintf(sb, "%sscanf(%s, &%s);\n", ind, refQuoteString(x.Format), x.Var)
	default:
		fmt.Fprintf(sb, "%s/* unknown statement %T */\n", ind, s)
	}
}

func refQuoteString(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// ExprString renders an expression with minimal parentheses.
func referenceExprString(e Expr) string {
	return refExprString(e, 0)
}

func refExprString(e Expr, parentPrec int) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *VarRef:
		return x.Name
	case *FuncRef:
		return "&" + x.Name
	case *Unary:
		return x.Op + refExprString(x.X, 7)
	case *Binary:
		prec := binaryPrec[x.Op]
		s := refExprString(x.X, prec) + " " + x.Op + " " + refExprString(x.Y, prec+1)
		if prec < parentPrec {
			return "(" + s + ")"
		}
		return s
	case *CallExpr:
		var args []string
		for _, a := range x.Args {
			args = append(args, refExprString(a, 0))
		}
		return fmt.Sprintf("%s(%s)", x.Callee, strings.Join(args, ", "))
	}
	return fmt.Sprintf("<%T>", e)
}
