package ir

import "testing"

// parseSeeds is FuzzParse's seed corpus. The store-key golden test hashes
// every seed that parses, so its digests pin the printer's output too.
var parseSeeds = []string{
	figure1,
	`module "x"`,
	"global @g : i32 = 7:i32 export",
	"declare func @f(ptr, ...) -> ptr",
	"struct %S = { i32, ptr }\nglobal @s : %S internal",
	"func @f(%p: ptr) export {\nentry:\n  %v = load ptr, %p\n  ret %v\n}",
	"func @f() export {\nentry:\n  condbr 1:i1, a, b\na:\n  br b\nb:\n  ret\n}",
	"global @a : [3 x { ptr, i8 }] internal",
	"func @f() export {\nentry:\n  %c = call void, @f()\n  ret\n}",
	"; comment only",
	"module \"é\"",
	"global @a : i32 = 0:i32 internal\nglobal @t : [2 x ptr] = { @a, null } internal",
	"global @n : [2 x [2 x i64]] = { { 1:i64 }, { } } internal",
	"func @f() export {\nentry:\n  %x = phi ptr, [null, entry]\n  ret\n}",
	"declare bogus\nglobal @a : i32 export $",
	"func @f() export {\nentry:\n  ret\n}\n\"open",
}

// FuzzParse checks that the MIR parser never panics, that the pull
// scanner agrees with the whole-input reference lexer (same tokens, and
// for rejected input the same error from Parse), and that anything the
// parser accepts verifies, prints the reference printer's text,
// round-trips, and has the chunked layout (see layoutError).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexParity(t, src)
		m, err := Parse(src)
		if err != nil {
			return
		}
		// Accepted input must print the reference printer's text, and
		// reparse to the same text.
		text := Print(m)
		if want := printReference(m); text != want {
			t.Fatalf("Print differs from the reference printer:\n%s\nwant:\n%s", text, want)
		}
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not reparse: %v\n%s", err, text)
		}
		if Print(m2) != text {
			t.Fatalf("round-trip not a fixed point:\n%s\nvs\n%s", text, Print(m2))
		}
		// Every list is capacity-limited, and mutating one leaves the
		// rest of the module as it was.
		if err := layoutError(m); err != nil {
			t.Fatal(err)
		}
		if err := mutationError(m); err != nil {
			t.Fatal(err)
		}
	})
}
