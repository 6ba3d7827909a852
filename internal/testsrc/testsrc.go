// Package testsrc collects the string literals of Go source files, so a
// test can run over every mini-C program the repository's tests and
// examples embed without keeping its own list of them. A caller keeps
// the literals its frontend accepts; most of the rest (names, queries,
// expected output) are not C.
package testsrc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// Literals returns the value of every string literal in the Go files
// matching the glob patterns, in file and source order.
func Literals(t testing.TB, patterns ...string) []string {
	t.Helper()
	var out []string
	for _, pat := range patterns {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("pattern %q matches no file (%v)", pat, err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	return out
}
