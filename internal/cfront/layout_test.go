package cfront

import (
	"strings"
	"testing"
)

// bodySource spells a C function whose body repeats a group of
// statements n times: arithmetic with constants, loads and stores,
// pointer casts, a field store and a call with several arguments.
func bodySource(n int) string {
	var b strings.Builder
	b.WriteString(`struct node { int v; struct node *next; };
extern void sink(int *p, long n, double d);
int f(int a, int *p, struct node *nd) {
    int x = a;
    int *q = p;
    long h = 0;
`)
	for i := 0; i < n; i++ {
		b.WriteString("    x = x + 3; *q = x; q = p; h = (long)q; sink(q, h, 2.5); nd->v = x; nd = nd->next;\n")
	}
	b.WriteString("    return x;\n}\n")
	return b.String()
}

// TestLowerAllocsPerBody pins that lowering allocates per function, not
// per instruction: doubling the body may add only the growth of the
// builder's chunks, a few allocations against the hundreds of
// instructions it adds.
func TestLowerAllocsPerBody(t *testing.T) {
	const n = 16
	allocs := func(src string) (float64, int) {
		file, err := ParseC(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := lower("t.c", file)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := lower("t.c", file); err != nil {
				t.Fatal(err)
			}
		}), m.NumInstrs()
	}
	base, baseInstrs := allocs(bodySource(n))
	doubled, doubledInstrs := allocs(bodySource(2 * n))
	added := doubledInstrs - baseInstrs
	if extra := doubled - base; extra > float64(added)/16 {
		t.Fatalf("doubling the body (%d more instructions) costs %v more allocations (%v, was %v)",
			added, extra, doubled, base)
	}
}
