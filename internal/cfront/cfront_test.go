package cfront

import (
	"strings"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/ir"
)

// figure1C is the paper's Figure 1, verbatim C.
const figure1C = `
static int x, y;
int z;
extern int* getPtr();

int* p = &x;

void callMe(int* q) {
    int w;
    int* r = getPtr();
    if (r == NULL)
        r = &w;
}
`

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v\n%s", err, ir.Print(m))
	}
	return m
}

func TestCompileFigure1(t *testing.T) {
	m := compile(t, figure1C)
	for _, name := range []string{"x", "y", "z", "p"} {
		if m.Global(name) == nil {
			t.Fatalf("missing global %s", name)
		}
	}
	if m.Global("x").Linkage != ir.Internal || m.Global("z").Linkage != ir.Exported {
		t.Fatal("wrong linkage for x/z")
	}
	if g := m.Global("p"); g.Init != m.Global("x") {
		t.Fatalf("p should be initialized to &x, got %v", g.Init)
	}
	gp := m.Func("getPtr")
	if gp == nil || !gp.IsDecl() {
		t.Fatal("getPtr must be a declaration")
	}
	cm := m.Func("callMe")
	if cm == nil || cm.IsDecl() || cm.Linkage != ir.Exported {
		t.Fatal("callMe must be an exported definition")
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	// The complete pipeline: C → MIR → constraints → solution, checking
	// the paper's introduction claims.
	m := compile(t, figure1C)
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())

	xMem := g.MemOf[m.Global("x")]
	yMem := g.MemOf[m.Global("y")]
	zMem := g.MemOf[m.Global("z")]
	pMem := g.MemOf[m.Global("p")]

	has := func(v core.VarID, x core.VarID) bool {
		for _, t := range sol.PointsTo(v) {
			if t == x {
				return true
			}
		}
		return false
	}
	if !has(pMem, xMem) || !has(pMem, zMem) || !sol.PointsToExternal(pMem) {
		t.Fatalf("Sol(p) must include x, z, Ω: %v", sol.PointsTo(pMem))
	}
	if has(pMem, yMem) {
		t.Fatal("Sol(p) must exclude y")
	}
	if sol.Escaped(yMem) {
		t.Fatal("static y must not escape")
	}
	// w (the only alloca in callMe) must not escape.
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			if mem, ok := g.MemOf[in]; ok && in.Ty == ir.I32 {
				if sol.Escaped(mem) {
					t.Fatalf("local %s escaped", g.Problem.Names[mem])
				}
			}
		}
	})
}

func TestStructsAndLinkedList(t *testing.T) {
	src := `
struct node {
    int value;
    struct node *next;
};

static struct node *head;

void push(struct node *n) {
    n->next = head;
    head = n;
}

int sum() {
    int total = 0;
    struct node *cur;
    for (cur = head; cur != NULL; cur = cur->next) {
        total += cur->value;
    }
    return total;
}
`
	m := compile(t, src)
	if m.Struct("node") == nil {
		t.Fatal("struct node not lowered")
	}
	st := m.Struct("node")
	if len(st.Fields) != 2 || !ir.PointerCompatible(st) {
		t.Fatalf("struct node fields wrong: %v", st.Fields)
	}
	// Run the analysis; head must not escape (static, no external calls).
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	if sol.Escaped(g.MemOf[m.Global("head")]) {
		t.Fatal("static head must not escape in a module without external calls")
	}
}

func TestFunctionPointers(t *testing.T) {
	src := `
static int doubler(int v) { return v + v; }
static int (*op)(int) = doubler;

int apply(int v) {
    return op(v);
}

int applyPtr(int (*f)(int), int v) {
    return f(v);
}
`
	m := compile(t, src)
	op := m.Global("op")
	if op == nil || op.Init != m.Func("doubler") {
		t.Fatal("function pointer initializer")
	}
	// The indirect call through op must resolve to doubler in the
	// points-to solution.
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	found := false
	for _, x := range sol.PointsTo(g.MemOf[op]) {
		if x == g.MemOf[m.Func("doubler")] {
			found = true
		}
	}
	if !found {
		t.Fatal("op must point to doubler")
	}
}

func TestMallocAndCasts(t *testing.T) {
	src := `
extern void *malloc(long n);
extern void free(void *p);

struct box { int **handle; };

int **make(int n) {
    int **arr = (int**)malloc(sizeof(int*) * n);
    int i;
    for (i = 0; i < n; i = i + 1) {
        arr[i] = (int*)malloc(sizeof(int));
    }
    return arr;
}

long expose(int *p) {
    long addr = (long)p;
    return addr;
}

int *recreate(long addr) {
    return (int*)addr;
}
`
	m := compile(t, src)
	// ptrtoint and inttoptr must appear.
	var sawP2I, sawI2P bool
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpPtrToInt:
			sawP2I = true
		case ir.OpIntToPtr:
			sawI2P = true
		}
	})
	if !sawP2I || !sawI2P {
		t.Fatal("pointer-integer casts not lowered")
	}
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	// recreate's result must point to external memory (unknown origin).
	ret := g.RetOf[m.Func("recreate")]
	if !sol.PointsToExternal(ret) {
		t.Fatal("inttoptr result must have unknown origin")
	}
}

func TestControlFlowLowering(t *testing.T) {
	src := `
int classify(int v) {
    int r = 0;
    if (v > 10) { r = 1; } else if (v > 0) { r = 2; } else { r = 3; }
    while (v > 0) { v = v - 1; r += 1; if (r > 100) break; }
    do { r = r - 1; } while (r > 50);
    for (;;) { if (r < 10) break; r = r / 2; }
    return v > 0 && r < 5 || v == 0 ? r : -r;
}
`
	m := compile(t, src)
	f := m.Func("classify")
	if len(f.Blocks) < 10 {
		t.Fatalf("expected rich control flow, got %d blocks", len(f.Blocks))
	}
	// Every block terminated (Verify checks, but assert explicitly).
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			t.Fatalf("block %s unterminated", b.BName)
		}
	}
}

func TestArraysAndStrings(t *testing.T) {
	src := `
static char buffer[64];
static char *names[4];

void setName(int i, char *n) {
    names[i] = n;
}

char *greeting() {
    return "hello";
}

char *bufferPtr() {
    return &buffer[8];
}
`
	m := compile(t, src)
	if g := m.Global("buffer"); g == nil {
		t.Fatal("buffer missing")
	} else if at, ok := g.Elem.(*ir.ArrayType); !ok || at.Len != 64 {
		t.Fatalf("buffer type: %v", g.Elem)
	}
	// A string literal global must exist.
	foundStr := false
	for _, gl := range m.Globals {
		if strings.HasPrefix(gl.GName, "str.") {
			foundStr = true
			if gl.Linkage != ir.Internal {
				t.Fatal("string literal must be internal")
			}
		}
	}
	if !foundStr {
		t.Fatal("string literal not interned")
	}
	// greeting's result points to the string global.
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	ret := g.RetOf[m.Func("greeting")]
	if len(sol.PointsTo(ret)) == 0 {
		t.Fatal("greeting returns no pointees")
	}
}

func TestTypedefAndSizeof(t *testing.T) {
	src := `
typedef struct pair { int a; int b; } pair_t;
typedef pair_t *pair_ptr;

static pair_t global_pair;

long size() { return sizeof(pair_t); }

pair_ptr get() { return &global_pair; }
`
	m := compile(t, src)
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	ret := g.RetOf[m.Func("get")]
	want := g.MemOf[m.Global("global_pair")]
	found := false
	for _, x := range sol.PointsTo(ret) {
		if x == want {
			found = true
		}
	}
	if !found {
		t.Fatal("get() must return &global_pair")
	}
}

func TestStructCopyUsesMemcpy(t *testing.T) {
	src := `
struct big { int *p; int data[8]; };
static struct big a, b;

void copy() {
    a = b;
}
`
	m := compile(t, src)
	saw := false
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpMemcpy {
			saw = true
		}
	})
	if !saw {
		t.Fatal("struct assignment must lower to memcpy")
	}
	// The copy transfers pointees: store into b.p, then a.p sees it.
	src2 := `
struct big { int *p; };
static struct big a, b;
static int target;

int *read() {
    b.p = &target;
    a = b;
    return a.p;
}
`
	m2 := compile(t, src2)
	g := core.Generate(m2)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	ret := g.RetOf[m2.Func("read")]
	want := g.MemOf[m2.Global("target")]
	found := false
	for _, x := range sol.PointsTo(ret) {
		if x == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("struct copy must transfer pointees: %v", sol.Dump())
	}
}

func TestParserErrors(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"bad token", "int x = $;", "unexpected character"},
		{"missing semi", "int f() { return 1 }", "expected"},
		{"unknown ident", "int f() { return nope; }", "unknown identifier"},
		{"bad deref", "int f(int x) { return *x; }", "dereference of non-pointer"},
		{"bad member", "int f(int x) { return x.f; }", "member access on non-struct"},
		{"break outside", "int f() { break; }", "break outside"},
		{"undeclared call", "int f() { return g(); }", "undeclared function"},
		{"unterminated comment", "/* oops", "unterminated comment"},
		{"unterminated string", "char *s = \"abc;", "unterminated string"},
	}
	for _, c := range cases {
		_, err := Compile("t", c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
		}
	}
}

// TestLexErrorPrecedence pins that the whole input is lexed before
// parsing: a bad byte anywhere wins over an earlier parse error.
func TestLexErrorPrecedence(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int f() { return 1 }\nint g;\n$", "line 3: unexpected character \"$\""},
		{"int x = ;\n/* open", "line 2: unterminated comment"},
		{"int f( {\nchar *s = \"abc\n\";", "line 2: newline in string literal"},
	} {
		_, err := Compile("t", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Compile(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestLexAllocatesFinalSize checks that the token slice is allocated once,
// at exactly the number of tokens.
func TestLexAllocatesFinalSize(t *testing.T) {
	src := benchSource(4 << 10)
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if cap(toks) != len(toks) || toks[len(toks)-1].kind != tEOF {
		t.Fatalf("lex returned %d tokens in a slice of capacity %d", len(toks), cap(toks))
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = lex(src) }); allocs != 1 {
		t.Fatalf("lex made %v allocations, want 1", allocs)
	}
}

func TestRoundTripThroughIRText(t *testing.T) {
	m := compile(t, figure1C)
	text := ir.Print(m)
	m2, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if ir.Print(m2) != text {
		t.Fatal("compiled module does not round-trip through MIR text")
	}
}

// TestFloatConstantRoundTrip pins that float constants print in a form
// that parses back: with a positive exponent ("1e+06:f64", fmt's %g
// spelling), and integral ("2:f64", no point and no exponent).
func TestFloatConstantRoundTrip(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"double g = 1e300;", "1e+300:f64"},
		{"double f() { double d = 1000000.0; return d; }", "1e+06:f64"},
		{"double g = 2.0;", "2:f64"},
		{"float f() { return 1.0; }", "1:f64"},
	} {
		text := ir.Print(compile(t, c.src))
		if !strings.Contains(text, c.want) {
			t.Fatalf("%q: printed text lacks %s:\n%s", c.src, c.want, text)
		}
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%q: reparse: %v\n%s", c.src, err, text)
		}
		if ir.Print(m2) != text {
			t.Fatalf("%q: module does not round-trip through MIR text", c.src)
		}
	}
}

func TestNestedDeclarators(t *testing.T) {
	src := `
int (*handlers[4])(int);
static int h0(int v) { return v; }

void init() {
    handlers[0] = h0;
}

int dispatch(int i, int v) {
    return handlers[i](v);
}
`
	m := compile(t, src)
	g := m.Global("handlers")
	if g == nil {
		t.Fatal("handlers missing")
	}
	at, ok := g.Elem.(*ir.ArrayType)
	if !ok || at.Len != 4 || !ir.PointerCompatible(at) {
		t.Fatalf("handlers type wrong: %v", g.Elem)
	}
	// dispatch's indirect call must resolve to h0.
	gen := core.Generate(m)
	sol := core.MustSolve(gen.Problem, core.DefaultConfig())
	hMem := gen.MemOf[m.Global("handlers")]
	want := gen.MemOf[m.Func("h0")]
	found := false
	for _, x := range sol.PointsTo(hMem) {
		if x == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("handlers must contain h0: %v", sol.Dump())
	}
}

func TestPointerArithmetic(t *testing.T) {
	src := `
int *advance(int *p, int n) {
    return p + n;
}
int *retreat(int *p) {
    return p - 1;
}
long distance(int *a, int *b) {
    return a - b;
}
`
	m := compile(t, src)
	sawGEP := 0
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpGEP {
			sawGEP++
		}
	})
	if sawGEP < 2 {
		t.Fatalf("pointer arithmetic must lower to gep, saw %d", sawGEP)
	}
	// advance preserves points-to sets (field-insensitive).
	g := core.Generate(m)
	sol := core.MustSolve(g.Problem, core.DefaultConfig())
	f := m.Func("advance")
	ret := g.RetOf[f]
	// Parameters of exported functions have unknown origins.
	if !sol.PointsToExternal(ret) {
		t.Fatal("advance's result should carry the parameter's unknown origin")
	}
}

// TestArrayLengthOutOfRange pins that an array length that overflows an
// int or is not a valid literal is an error with its line, not a clamped
// or zero length, and that valid lengths keep their meaning.
func TestArrayLengthOutOfRange(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int a[99999999999999999999];", `line 1: bad array length "99999999999999999999"`},
		{"int x;\nint f(void) { int a[09]; return 0; }", `line 2: bad array length "09"`},
		{"struct s { int *p[0x8000000000000000]; };", `line 1: bad array length "0x8000000000000000"`},
	} {
		_, err := Compile("t", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Compile(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	for _, c := range []struct{ src, want string }{
		{"int a[0x10];", "[16 x i32]"},
		{"int a[010];", "[8 x i32]"},
		{"char a[9223372036854775807];", "[9223372036854775807 x i8]"},
	} {
		m, err := Compile("t", c.src)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.src, err)
			continue
		}
		if got := m.Global("a").Elem.String(); got != c.want {
			t.Errorf("Compile(%q): a has type %s, want %s", c.src, got, c.want)
		}
	}
}
