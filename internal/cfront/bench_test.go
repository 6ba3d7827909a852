package cfront

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// benchSource returns a deterministic mini-C file of about size bytes in
// the shape of an edited translation unit: a prelude of struct types,
// globals and helpers, then independent functions over linked lists,
// malloc, function pointers, extern calls and int<->pointer casts.
func benchSource(size int) string {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString(`extern void *malloc(long n);
extern void ext_sink(void *p);
extern void *ext_source(long k);

static int gi;

struct node {
    int value;
    struct node *next;
    int *data;
};

static struct node *head;
static int *gp;

static int inc(int v) { return v + 1; }
static int (*op)(int) = inc;

static struct node *mk(int v) {
    struct node *n = (struct node*)malloc(sizeof(struct node));
    n->value = v;
    n->next = NULL;
    n->data = &gi;
    return n;
}

`)
	stmts := []string{
		"n->next = head; head = n;",
		"n->data = q;",
		"q = n->data;",
		"gp = q;",
		"h = (long)q;",
		"q = (int*)h;",
		"ext_sink(n);",
		"q = (int*)ext_source(t);",
		"t = t + op(a);",
		"for (cur = head; cur != NULL; cur = cur->next) { t += cur->value; q = cur->data; }",
		"if (a > 3) { n = mk(t); } else { n->next = head; }",
		"*q = t;",
	}
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "int u%d(int a, int *p) {\n    struct node *n = mk(a);\n    struct node *cur;\n    int *q = p;\n    long h = 0;\n    int t = a;\n", i)
		for k, n := 0, 6+rng.Intn(8); k < n; k++ {
			b.WriteString("    ")
			b.WriteString(stmts[rng.Intn(len(stmts))])
			b.WriteByte('\n')
		}
		b.WriteString("    return t;\n}\n\n")
	}
	return b.String()
}

// BenchmarkCompile compiles a 30 KB file: lexing, parsing and lowering.
func BenchmarkCompile(b *testing.B) {
	src := benchSource(30 << 10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("bench.c", src); err != nil {
			b.Fatal(err)
		}
	}
}
