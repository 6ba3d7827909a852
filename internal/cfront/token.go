// Package cfront is a frontend for a C subset ("mini-C") that lowers to
// MIR. It supports the language constructs that matter to a points-to
// analysis: pointers, arrays, structs, address-of and dereference, function
// pointers and indirect calls, static/extern linkage, pointer-integer
// casts, and the standard allocation functions. It stands in for clang in
// this reproduction, letting the examples and tests analyze real C source
// such as the paper's Figure 1.
package cfront

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tInt
	tFloat
	tChar
	tString
	tPunct
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// isKeyword reports whether word is a mini-C keyword.
func isKeyword(word string) bool {
	switch word {
	case "void", "char", "short", "int", "long",
		"float", "double", "unsigned", "signed",
		"struct", "union", "enum",
		"static", "extern", "const",
		"if", "else", "while", "for", "do",
		"switch", "case", "default",
		"return", "break", "continue", "sizeof",
		"typedef", "NULL":
		return true
	}
	return false
}

type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

// lex tokenizes src. The token slice is allocated once, at its final
// size: a first scan counts the tokens and stops at the first lexical
// error, a second fills the slice.
func lex(src string) ([]token, error) {
	lx := lexer{src: src, line: 1}
	n := 0
	for {
		t, err := lx.scan()
		if err != nil {
			return nil, err
		}
		n++
		if t.kind == tEOF {
			break
		}
	}
	toks := make([]token, 0, n)
	lx = lexer{src: src, line: 1}
	for len(toks) < n {
		t, _ := lx.scan()
		toks = append(toks, t)
	}
	return toks, nil
}

// lexer scans mini-C source one token at a time.
type lexer struct {
	src  string
	i    int
	line int
}

// scan returns the next token, or tEOF at the end of the input.
func (lx *lexer) scan() (token, error) {
	src, n := lx.src, len(lx.src)
	i, line := lx.i, lx.line
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return token{}, &lexError{line, "unterminated comment"}
			}
			i += 2
		case c == '#':
			// Preprocessor lines are ignored (the mini-C frontend takes
			// already-preprocessed input).
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '"':
			i++
			var sb strings.Builder
			for i < n && src[i] != '"' {
				if src[i] == '\n' {
					return token{}, &lexError{line, "newline in string literal"}
				}
				if src[i] == '\\' && i+1 < n {
					i++
					sb.WriteByte(unescape(src[i]))
				} else {
					sb.WriteByte(src[i])
				}
				i++
			}
			if i >= n {
				return token{}, &lexError{line, "unterminated string literal"}
			}
			i++
			return lx.stop(i, line, token{tString, sb.String(), line})
		case c == '\'':
			i++
			if i >= n {
				return token{}, &lexError{line, "unterminated character literal"}
			}
			var ch byte
			if src[i] == '\\' && i+1 < n {
				i++
				ch = unescape(src[i])
			} else {
				ch = src[i]
			}
			i++
			if i >= n || src[i] != '\'' {
				return token{}, &lexError{line, "unterminated character literal"}
			}
			i++
			return lx.stop(i, line, token{tChar, string(ch), line})
		case isDigit(c):
			start := i
			isFloat := false
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				i += 2
				for i < n && isHexDigit(src[i]) {
					i++
				}
			} else {
				for i < n && isDigit(src[i]) {
					i++
				}
				if i < n && src[i] == '.' {
					isFloat = true
					i++
					for i < n && isDigit(src[i]) {
						i++
					}
				}
				if i < n && (src[i] == 'e' || src[i] == 'E') {
					j := i + 1
					if j < n && (src[j] == '+' || src[j] == '-') {
						j++
					}
					if j < n && isDigit(src[j]) {
						isFloat = true
						i = j
						for i < n && isDigit(src[i]) {
							i++
						}
					}
				}
			}
			numEnd := i
			// Integer/float suffixes (dropped from the token text).
			for i < n && (src[i] == 'u' || src[i] == 'U' || src[i] == 'l' || src[i] == 'L' ||
				src[i] == 'f' || src[i] == 'F') {
				if src[i] == 'f' || src[i] == 'F' {
					isFloat = true
				}
				i++
			}
			kind := tInt
			if isFloat {
				kind = tFloat
			}
			return lx.stop(i, line, token{kind, src[start:numEnd], line})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			kind := tIdent
			if isKeyword(word) {
				kind = tKeyword
			}
			return lx.stop(i, line, token{kind, word, line})
		default:
			if i+1 < n && isPunct2(src[i:i+2]) {
				i += 2
				return lx.stop(i, line, token{tPunct, src[i-2 : i], line})
			}
			if strings.IndexByte("+-*/%<>=!&|^~?:;,.(){}[]", c) >= 0 {
				i++
				return lx.stop(i, line, token{tPunct, src[i-1 : i], line})
			}
			return token{}, &lexError{line, fmt.Sprintf("unexpected character %q", string(c))}
		}
	}
	return lx.stop(i, line, token{tEOF, "", line})
}

// stop records where scanning stopped (offset i, line) and returns t.
func (lx *lexer) stop(i, line int, t token) (token, error) {
	lx.i, lx.line = i, line
	return t, nil
}

// isPunct2 reports whether s is a two-character punctuator.
func isPunct2(s string) bool {
	switch s {
	case "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--":
		return true
	}
	return false
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	default:
		return c
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
func isIdentStart(c byte) bool {
	if c < utf8.RuneSelf {
		return c == '_' || 'a' <= c|0x20 && c|0x20 <= 'z'
	}
	return unicode.IsLetter(rune(c))
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
