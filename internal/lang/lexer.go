package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct   // one of the operator/punctuation strings
	tokKeyword // int, void, fnptr, if, else, while, return, break, continue, printf, scanf
)

// token is one lexical token. Identifier, number, keyword and punctuation
// texts are slices of the source; a string literal's text is its unescaped
// contents, a source slice unless it holds an escape.
type token struct {
	kind tokenKind
	text string
	pos  Pos
}

func isKeyword(s string) bool {
	switch s {
	case "int", "void", "fnptr", "if", "else", "while", "return", "break", "continue", "printf", "scanf":
		return true
	}
	return false
}

// Byte classes. A byte is classified as the rune of the same value, by
// unicode.IsLetter and unicode.IsDigit, so bytes 0x80-0xFF that are
// Latin-1 letters continue an identifier.
var identStart, identPart, isDigit [256]bool

func init() {
	for b := range 256 {
		isDigit[b] = unicode.IsDigit(rune(b))
		identStart[b] = b == '_' || unicode.IsLetter(rune(b))
		identPart[b] = identStart[b] || isDigit[b]
	}
}

// lexer scans MicroC source text one token at a time. Columns count bytes
// from 1, so a position is the line and the offset from the line's start.
type lexer struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

func (lx *lexer) pos() Pos { return Pos{lx.line, lx.off - lx.lineStart + 1} }

func (lx *lexer) errorf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

// skip advances over the next n bytes, counting the lines they end.
func (lx *lexer) skip(n int) {
	seg := lx.src[lx.off : lx.off+n]
	if k := strings.Count(seg, "\n"); k > 0 {
		lx.line += k
		lx.lineStart = lx.off + strings.LastIndexByte(seg, '\n') + 1
	}
	lx.off += n
}

func (lx *lexer) skipSpaceAndComments() error {
	src := lx.src
	for lx.off < len(src) {
		switch c := src[lx.off]; {
		case c == '\n':
			lx.off++
			lx.line++
			lx.lineStart = lx.off
		case c == ' ' || c == '\t' || c == '\r':
			lx.off++
		case c == '/' && lx.off+1 < len(src) && src[lx.off+1] == '/':
			if i := strings.IndexByte(src[lx.off:], '\n'); i >= 0 {
				lx.off += i
			} else {
				lx.off = len(src)
			}
		case c == '/' && lx.off+1 < len(src) && src[lx.off+1] == '*':
			pos := lx.pos()
			i := strings.Index(src[lx.off+2:], "*/")
			if i < 0 {
				return lx.errorf(pos, "unterminated block comment")
			}
			lx.skip(i + 4)
		default:
			return nil
		}
	}
	return nil
}

// next scans and returns the next token. At the end of the input it
// returns an EOF token, at the same position on every further call.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	pos := lx.pos()
	src := lx.src
	start := lx.off
	if start >= len(src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := src[start]
	switch {
	case identStart[c]:
		i := start + 1
		for i < len(src) && identPart[src[i]] {
			i++
		}
		lx.off = i
		if text := src[start:i]; isKeyword(text) {
			return token{kind: tokKeyword, text: text, pos: pos}, nil
		}
		return token{kind: tokIdent, text: src[start:i], pos: pos}, nil
	case isDigit[c]:
		i := start + 1
		for i < len(src) && isDigit[src[i]] {
			i++
		}
		lx.off = i
		return token{kind: tokInt, text: src[start:i], pos: pos}, nil
	case c == '"':
		return lx.str(pos)
	}
	if start+1 < len(src) {
		switch p := src[start : start+2]; p {
		case "==", "!=", "<=", ">=", "&&", "||":
			lx.off += 2
			return token{kind: tokPunct, text: p, pos: pos}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '(', ')', '{', '}', ',', ';', '&':
		lx.off++
		return token{kind: tokPunct, text: src[start : start+1], pos: pos}, nil
	}
	return token{}, lx.errorf(pos, "unexpected character %q", c)
}

// str scans a string literal starting at the opening quote. A literal
// without escapes is returned as a slice of the source.
func (lx *lexer) str(pos Pos) (token, error) {
	src := lx.src
	start := lx.off + 1
	i := start
	for i < len(src) && src[i] != '"' && src[i] != '\\' {
		i++
	}
	if i < len(src) && src[i] == '"' {
		lx.skip(i + 1 - lx.off)
		return token{kind: tokString, text: src[start:i], pos: pos}, nil
	}
	var sb strings.Builder
	sb.WriteString(src[start:i])
	for {
		if i >= len(src) {
			return token{}, lx.errorf(pos, "unterminated string literal")
		}
		b := src[i]
		i++
		if b == '"' {
			break
		}
		if b != '\\' {
			sb.WriteByte(b)
			continue
		}
		if i >= len(src) {
			return token{}, lx.errorf(pos, "unterminated escape")
		}
		e := src[i]
		i++
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
			return token{}, lx.errorf(pos, "unknown escape \\%c", e)
		}
	}
	lx.skip(i - lx.off)
	return token{kind: tokString, text: sb.String(), pos: pos}, nil
}
