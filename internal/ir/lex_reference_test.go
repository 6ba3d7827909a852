package ir

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// lexReference is the whole-input tokenizer Parse used before the lexer
// became a pull scanner. It is kept as the reference the streaming path
// is checked against: same tokens, and for a rejected input the same
// error, whatever parse error precedes the bad byte.
func lexReference(src string) ([]token, error) {
	pos, line := 0, 1
	var toks []token
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == '\n':
			line++
			pos++
		case c == ' ' || c == '\t' || c == '\r':
			pos++
		case c == ';':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case c == '%' || c == '@':
			pos++
			start := pos
			for pos < len(src) && isIdentPart(src[pos]) {
				pos++
			}
			if pos == start {
				return nil, fmt.Errorf("line %d: dangling %q", line, string(c))
			}
			kind := tLocal
			if c == '@' {
				kind = tGlobalID
			}
			toks = append(toks, token{kind, src[start:pos], line})
		case c == '"':
			start := pos
			pos++
			for pos < len(src) && src[pos] != '"' && src[pos] != '\n' {
				if src[pos] == '\\' && pos+1 < len(src) {
					pos++
				}
				pos++
			}
			if pos >= len(src) || src[pos] != '"' {
				return nil, fmt.Errorf("line %d: unterminated string", line)
			}
			pos++
			text, err := strconv.Unquote(src[start:pos])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad string literal: %v", line, err)
			}
			toks = append(toks, token{tString, text, line})
		case c == '-' && pos+1 < len(src) && src[pos+1] == '>':
			toks = append(toks, token{tPunct, "->", line})
			pos += 2
		case c == '-' || c >= '0' && c <= '9':
			start := pos
			if c == '-' {
				pos++
			}
			isFloat := false
			for pos < len(src) {
				d := src[pos]
				if d >= '0' && d <= '9' {
					pos++
				} else if d == '.' && !isFloat && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9' {
					isFloat = true
					pos++
				} else if (d == 'e' || d == 'E') && pos+1 < len(src) &&
					(src[pos+1] == '-' || src[pos+1] == '+' || src[pos+1] >= '0' && src[pos+1] <= '9') {
					isFloat = true
					pos += 2
				} else {
					break
				}
			}
			text := src[start:pos]
			if text == "-" {
				return nil, fmt.Errorf("line %d: dangling '-'", line)
			}
			kind := tInt
			if isFloat {
				kind = tFloat
			}
			toks = append(toks, token{kind, text, line})
		case isIdentStart(c):
			start := pos
			for pos < len(src) && isIdentPart(src[pos]) {
				pos++
			}
			toks = append(toks, token{tIdent, src[start:pos], line})
		case strings.ContainsRune("(){}[],:=x", rune(c)):
			toks = append(toks, token{tPunct, string(c), line})
			pos++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, string(c))
		}
	}
	return append(toks, token{tEOF, "", line}), nil
}

// checkLexParity asserts that the pull scanner and Parse agree with the
// reference lexer on src: identical tokens when it accepts, and exactly
// its error from both when it rejects.
func checkLexParity(t *testing.T, src string) {
	t.Helper()
	want, refErr := lexReference(src)
	l := newLexer(src)
	var got []token
	for {
		tok := l.scan()
		got = append(got, tok)
		if tok.kind == tEOF {
			break
		}
	}
	if refErr != nil {
		if l.err == nil || l.err.Error() != refErr.Error() {
			t.Fatalf("scan error = %v, reference lexer = %v", l.err, refErr)
		}
		if _, err := Parse(src); err == nil || err.Error() != refErr.Error() {
			t.Fatalf("Parse error = %v, want the lexical error %v", err, refErr)
		}
		return
	}
	if l.err != nil {
		t.Fatalf("scan error %v on input the reference lexer accepts", l.err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan gave %d tokens, reference lexer %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: scan %+v, reference lexer %+v", i, got[i], want[i])
		}
	}
}

// TestLexErrorPrecedence pins the rule that a bad byte anywhere in the
// input wins over an earlier parse error, a lexer error after a complete
// module, and a resolution error found only at end of input.
func TestLexErrorPrecedence(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"parse error then bad byte", "global @a : i32\nfunc @f() export {\nentry:\n  ret\n}\n$", `line 6: unexpected character "$"`},
		{"parse error then open string", "declare bogus\n\n\nmodule \"x", "line 4: unterminated string"},
		{"parse error then dangling sigil", "func @f() export {\nentry:\n  fly %x\n}\n@", `line 5: dangling "@"`},
		{"complete module then dangling minus", "global @a : i32 export\n-", "line 2: dangling '-'"},
		{"unknown symbol then bad byte", "global @a : ptr = @missing export\n#", `line 2: unexpected character "#"`},
		{"label lookahead then bad byte", "func @f() export {\nentry:\n  ret\nb #", `line 4: unexpected character "#"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || err.Error() != c.want {
				t.Fatalf("Parse error = %v, want %q", err, c.want)
			}
			checkLexParity(t, c.src)
		})
	}
}
