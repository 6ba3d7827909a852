package ir

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokKind enumerates MIR token kinds.
type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tLocal    // %name
	tGlobalID // @name
	tInt
	tFloat
	tString
	tPunct // single punctuation or "->"
)

type token struct {
	kind tokKind
	text string // for idents/locals/globals: without sigil; for punct: the glyph(s)
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tLocal:
		return "%" + t.text
	case tGlobalID:
		return "@" + t.text
	case tString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// lexer produces MIR tokens on demand. After an invalid byte it records
// the error in err and returns end-of-input from then on.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// Byte classes, computed once. A byte of 0x80 or above classifies as the
// Latin-1 code point of the same value, as unicode.IsLetter sees it.
var identStart, identPart, punct [256]bool

func init() {
	for i := range identStart {
		r := rune(i)
		identStart[i] = r == '_' || r == '.' || unicode.IsLetter(r)
		identPart[i] = identStart[i] || unicode.IsDigit(r)
	}
	// 'x' appears only inside array types "[4 x i32]" and is lexed as an
	// ident before the punctuation case is reached.
	for _, c := range []byte("(){}[],:=x") {
		punct[c] = true
	}
}

func isIdentStart(r byte) bool { return identStart[r] }

func isIdentPart(r byte) bool { return identPart[r] }

// fail records a lexical error (with line information) and returns the
// end-of-input token that every later scan repeats.
func (l *lexer) fail(format string, args ...interface{}) token {
	l.err = fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
	l.pos = len(l.src)
	return token{tEOF, "", l.line}
}

// scan returns the next token, or tEOF at the end of the input or after a
// lexical error.
func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '%' || c == '@':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == start {
				return l.fail("dangling %q", string(c))
			}
			kind := tLocal
			if c == '@' {
				kind = tGlobalID
			}
			return token{kind, l.src[start:l.pos], l.line}
		case c == '"':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] != '"' && l.src[l.pos] != '\n' {
				if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
					l.pos++
				}
				l.pos++
			}
			if l.pos >= len(l.src) || l.src[l.pos] != '"' {
				return l.fail("unterminated string")
			}
			l.pos++
			text, err := strconv.Unquote(l.src[start:l.pos])
			if err != nil {
				return l.fail("bad string literal: %v", err)
			}
			return token{tString, text, l.line}
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
			l.pos += 2
			return token{tPunct, "->", l.line}
		case c == '-' || c >= '0' && c <= '9':
			start := l.pos
			if c == '-' {
				l.pos++
			}
			isFloat := false
			for l.pos < len(l.src) {
				d := l.src[l.pos]
				if d >= '0' && d <= '9' {
					l.pos++
				} else if d == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
					isFloat = true
					l.pos++
				} else if (d == 'e' || d == 'E') && l.pos+1 < len(l.src) &&
					(l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+' || l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9') {
					isFloat = true
					l.pos += 2
				} else {
					break
				}
			}
			text := l.src[start:l.pos]
			if text == "-" {
				return l.fail("dangling '-'")
			}
			kind := tInt
			if isFloat {
				kind = tFloat
			}
			return token{kind, text, l.line}
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			return token{tIdent, l.src[start:l.pos], l.line}
		case punct[c]:
			l.pos++
			return token{tPunct, l.src[l.pos-1 : l.pos], l.line}
		default:
			return l.fail("unexpected character %q", string(c))
		}
	}
	return token{tEOF, "", l.line}
}

// drain scans to the end of the input, so that err reports a lexical
// error anywhere in it.
func (l *lexer) drain() {
	for l.scan().kind != tEOF {
	}
}
