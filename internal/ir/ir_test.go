package ir

import (
	"strings"
	"testing"
)

func TestPointerCompatible(t *testing.T) {
	cases := []struct {
		t    Type
		want bool
	}{
		{I32, false},
		{I64, false},
		{F64, false},
		{Void, false},
		{Ptr, true},
		{&ArrayType{Elem: I32, Len: 4}, false},
		{&ArrayType{Elem: Ptr, Len: 4}, true},
		{&StructType{Fields: []Type{I32, I64}}, false},
		{&StructType{Fields: []Type{I32, Ptr}}, true},
		{&StructType{Fields: []Type{I32, &ArrayType{Elem: Ptr, Len: 2}}}, true},
	}
	for _, c := range cases {
		if got := PointerCompatible(c.t); got != c.want {
			t.Errorf("PointerCompatible(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTypesEqual(t *testing.T) {
	a := &StructType{Fields: []Type{I32, Ptr}}
	b := &StructType{Fields: []Type{I32, Ptr}}
	if !TypesEqual(a, b) {
		t.Fatal("structurally equal anonymous structs differ")
	}
	named1 := &StructType{Name: "S", Fields: []Type{I32}}
	named2 := &StructType{Name: "S", Fields: []Type{I64}}
	if !TypesEqual(named1, named2) {
		t.Fatal("named structs must compare by name")
	}
	if TypesEqual(named1, a) {
		t.Fatal("named vs anonymous struct equal")
	}
	if TypesEqual(I32, I64) || TypesEqual(I32, F32) || TypesEqual(Ptr, I64) {
		t.Fatal("distinct scalars equal")
	}
	f1 := &FuncType{Ret: Ptr, Params: []Type{I32}}
	f2 := &FuncType{Ret: Ptr, Params: []Type{I32}}
	f3 := &FuncType{Ret: Ptr, Params: []Type{I32}, Variadic: true}
	if !TypesEqual(f1, f2) || TypesEqual(f1, f3) {
		t.Fatal("func type equality")
	}
}

func TestSizeOfAndOffsets(t *testing.T) {
	s := &StructType{Fields: []Type{I32, Ptr, I8}}
	if got := SizeOf(s); got != 4+8+1 {
		t.Fatalf("SizeOf(struct) = %d", got)
	}
	if got := FieldOffset(s, 1); got != 4 {
		t.Fatalf("FieldOffset(1) = %d", got)
	}
	if got := FieldOffset(s, 2); got != 12 {
		t.Fatalf("FieldOffset(2) = %d", got)
	}
	if got := SizeOf(&ArrayType{Elem: I16, Len: 5}); got != 10 {
		t.Fatalf("SizeOf(array) = %d", got)
	}
}

// figure1 is the paper's Figure 1 program in MIR form.
const figure1 = `
module "figure1"
global @x : i32 = 0:i32 internal
global @y : i32 = 0:i32 internal
global @z : i32 = 0:i32 export
global @p : ptr = @x export
declare func @getPtr() -> ptr

func @callMe(%q: ptr) export {
entry:
  %w = alloca i32
  %r = call ptr, @getPtr()
  %c = icmp eq, %r, null
  condbr %c, isnull, done
isnull:
  br done
done:
  %r2 = phi ptr, [%r, entry], [%w, isnull]
  ret
}
`

func TestParseFigure1(t *testing.T) {
	m, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "figure1" {
		t.Fatalf("module name = %q", m.Name)
	}
	if len(m.Globals) != 4 {
		t.Fatalf("globals = %d", len(m.Globals))
	}
	if g := m.Global("x"); g == nil || g.Linkage != Internal {
		t.Fatal("global x missing or wrong linkage")
	}
	if g := m.Global("p"); g == nil || g.Init != m.Global("x") {
		t.Fatal("global p should be initialized with @x")
	}
	gp := m.Func("getPtr")
	if gp == nil || !gp.IsDecl() || gp.Linkage != Declared {
		t.Fatal("getPtr should be a declaration")
	}
	cm := m.Func("callMe")
	if cm == nil || cm.IsDecl() || cm.Linkage != Exported {
		t.Fatal("callMe should be an exported definition")
	}
	if len(cm.Blocks) != 3 {
		t.Fatalf("callMe blocks = %d", len(cm.Blocks))
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	m1, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Print(m1)
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text1)
	}
	text2 := Print(m2)
	if text1 != text2 {
		t.Fatalf("round-trip mismatch:\n--- first\n%s\n--- second\n%s", text1, text2)
	}
}

func TestParseStructAndAggregates(t *testing.T) {
	src := `
module "s"
struct %Node = { i32, ptr }
global @head : %Node internal
global @arr : [4 x ptr] internal

func @touch() internal {
entry:
  %n = alloca %Node
  %f = gep %Node, %n, 0:i64, 1:i64
  %v = load ptr, %f
  store %v, @arr
  %anon = alloca { i32, { ptr, i8 } }
  ret
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Struct("Node")
	if s == nil || len(s.Fields) != 2 {
		t.Fatal("struct Node not parsed")
	}
	if !PointerCompatible(s) {
		t.Fatal("Node should be pointer compatible")
	}
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	// Round-trip with structs.
	m2, err := Parse(Print(m))
	if err != nil {
		t.Fatalf("round-trip: %v\n%s", err, Print(m))
	}
	if Print(m) != Print(m2) {
		t.Fatal("struct round-trip mismatch")
	}
}

func TestParseAllInstructions(t *testing.T) {
	src := `
module "all"
global @g : ptr = null export
declare func @ext(ptr, ...) -> i32

func @f(%a: ptr, %n: i32) -> ptr export {
entry:
  %s = alloca [8 x i8]
  %v = load i64, %a
  store 1:i64, %a
  %idx = gep i8, %s, %n
  memcpy %s, %a, 8:i64
  %b = bitcast ptr, %s
  %i = ptrtoint %a
  %q = inttoptr %i
  %sum = add i64, %v, %i
  %d = div i64, %sum, 2
  %c = icmp lt, %d, 100
  condbr %c, big, small
big:
  %r1 = call i32, @ext(%a, %n)
  br out
small:
  %r2 = call i32, %a(%q)
  br out
out:
  %m = phi ptr, [%s, big], [%q, small]
  %sel = select %c, %m, %a
  ret %sel
}

func @dead() internal {
entry:
  unreachable
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	if m.NumInstrs() != 20 {
		t.Fatalf("NumInstrs = %d, want 20", m.NumInstrs())
	}
	m2, err := Parse(Print(m))
	if err != nil {
		t.Fatalf("round-trip: %v\n%s", err, Print(m))
	}
	if Print(m) != Print(m2) {
		t.Fatal("all-instruction round-trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"dup global", `global @a : i32 export` + "\n" + `global @a : i32 export`, "duplicate"},
		{"unknown struct", `global @a : %Missing export`, "unknown struct"},
		{"unknown symbol", `global @a : ptr = @missing export`, "unknown symbol"},
		{"missing linkage", `global @a : i32`, "linkage"},
		{"bad instr", "func @f() export {\nentry:\n  fly %x\n}", "unknown instruction"},
		{"unknown local", "func @f() export {\nentry:\n  %v = load i32, %nope\n  ret\n}", "unknown local"},
		{"dup local", "func @f() export {\nentry:\n  %v = alloca i32\n  %v = alloca i32\n  ret\n}", "duplicate definition"},
		{"unknown block", "func @f() export {\nentry:\n  br nowhere\n}", "unknown block"},
		{"result on store", "func @f(%p: ptr) export {\nentry:\n  %x = store 1:i32, %p\n  ret\n}", "does not produce"},
		{"no result on load", "func @f(%p: ptr) export {\nentry:\n  load i32, %p\n  ret\n}", "requires a result"},
		{"unterminated string", `module "oops`, "unterminated"},
		{"stray char", "global @a : i32 export $", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error, got none", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestParseArrayLengthOutOfRange pins that an array length that is
// negative or does not fit an int is an error with its line, not a
// clamped or negative length.
func TestParseArrayLengthOutOfRange(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"global @g : [99999999999999999999 x i32] export", "line 1: array length 99999999999999999999 out of range"},
		{"global @g : [-1 x i32] = zero:[-1 x i32] export", "line 1: array length -1 out of range"},
		{"func @f() export {\nentry:\n  %a = alloca [-3 x i8]\n  ret\n}", "line 3: array length -3 out of range"},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	for _, src := range []string{
		"module \"\"\nglobal @g : [0 x i32] export\n",
		"module \"\"\nglobal @g : [9223372036854775807 x i8] export\n",
	} {
		m, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		} else if got := Print(m); got != src {
			t.Errorf("Parse(%q) prints back as %q", src, got)
		}
	}
}

func TestVerifyCatchesBadModules(t *testing.T) {
	// Unterminated block.
	m := NewModule("bad")
	b := NewBuilder(m)
	b.NewFunc("f", &FuncType{Ret: Void}, nil, Exported)
	b.Alloca(I32) // no terminator
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("Verify = %v, want terminator error", err)
	}
	b.Ret(nil)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify after fix: %v", err)
	}

	// Cross-function operand use.
	m2 := NewModule("bad2")
	b2 := NewBuilder(m2)
	b2.NewFunc("a", &FuncType{Ret: Void}, nil, Exported)
	p := b2.Alloca(I32)
	b2.Ret(nil)
	b2.NewFunc("b", &FuncType{Ret: Void}, nil, Exported)
	b2.Load(I32, p) // uses instruction from @a
	b2.Ret(nil)
	if err := Verify(m2); err == nil || !strings.Contains(err.Error(), "another function") {
		t.Fatalf("Verify = %v, want cross-function error", err)
	}
}

func TestBuilderProducesVerifiableIR(t *testing.T) {
	m := NewModule("built")
	b := NewBuilder(m)
	g := b.GlobalVar("data", Ptr, Null(), Exported)
	ext := b.DeclareFunc("mystery", &FuncType{Ret: Ptr, Params: []Type{Ptr}})

	f := b.NewFunc("run", &FuncType{Ret: Ptr, Params: []Type{Ptr, I32}}, []string{"in", "n"}, Exported)
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	slot := b.Alloca(Ptr)
	b.Store(f.Params[0], slot)
	b.Br(loop)
	b.SetBlock(loop)
	v := b.Load(Ptr, slot)
	r := b.Call(Ptr, ext, v)
	b.Store(r, g)
	c := b.ICmp("eq", r, Null())
	b.CondBr(c, exit, loop)
	b.SetBlock(exit)
	b.Ret(r)

	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	// Builder output must round-trip through text as well.
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse of printed builder output: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Fatal("builder round-trip mismatch")
	}
}

func TestModuleLookups(t *testing.T) {
	m := NewModule("lk")
	b := NewBuilder(m)
	b.GlobalVar("g", I32, nil, Internal)
	b.DeclareFunc("f", &FuncType{Ret: Void})
	if m.Global("g") == nil || m.Func("f") == nil {
		t.Fatal("lookups failed")
	}
	if m.Global("f") != nil || m.Func("g") != nil {
		t.Fatal("cross-namespace lookups should fail")
	}
	if err := m.AddGlobal(&Global{GName: "f", Elem: I32}); err == nil {
		t.Fatal("global/function name collision not rejected")
	}
	if err := m.AddFunc(&Function{FName: "g", Sig: &FuncType{Ret: Void}}); err == nil {
		t.Fatal("function/global name collision not rejected")
	}
}

func TestNegativeAndTypedConstants(t *testing.T) {
	src := `
func @f(%p: ptr) export {
entry:
  store -7:i32, %p
  store 3.5:f32, %p
  store -2.5, %p
  store undef:i64, %p
  store zero:[2 x ptr], %p
  ret -1:i32
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	ins := f.Blocks[0].Instrs
	if c, ok := ins[0].Args[0].(*ConstInt); !ok || c.Val != -7 || c.T.Bits != 32 {
		t.Fatalf("bad const: %v", ins[0].Args[0])
	}
	if c, ok := ins[1].Args[0].(*ConstFloat); !ok || c.Val != 3.5 {
		t.Fatalf("bad float const: %v", ins[1].Args[0])
	}
	if c, ok := ins[2].Args[0].(*ConstFloat); !ok || c.Val != -2.5 || c.T.Bits != 64 {
		t.Fatalf("bad default float const: %v", ins[2].Args[0])
	}
	if _, ok := ins[3].Args[0].(*ConstUndef); !ok {
		t.Fatal("undef const")
	}
	if _, ok := ins[4].Args[0].(*ConstZero); !ok {
		t.Fatal("zero const")
	}
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestTerminatorAccess(t *testing.T) {
	m := MustParse(figure1)
	f := m.Func("callMe")
	entry := f.Blocks[0]
	term := entry.Terminator()
	if term == nil || term.Op != OpCondBr {
		t.Fatalf("entry terminator = %v", term)
	}
	empty := &Block{BName: "e"}
	if empty.Terminator() != nil {
		t.Fatal("empty block has terminator")
	}
}

func TestVariadicDeclRoundTrip(t *testing.T) {
	src := "declare func @printf(ptr, ...) -> i32\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("printf")
	if f == nil || !f.Sig.Variadic {
		t.Fatal("variadic lost")
	}
	if !strings.Contains(Print(m), "...") {
		t.Fatal("variadic not printed")
	}
}

func TestAggregateInitializerRoundTrip(t *testing.T) {
	src := `
module "agg"
global @a : i32 = 0:i32 internal
func @f() internal {
entry:
  ret
}
global @tab : [3 x ptr] = { @a, null, @f } internal
global @cfg : { i32, ptr } = { 7:i32, @a } internal
global @nested : [2 x [2 x i64]] = { { 1:i64, 2:i64 }, { 3:i64, 4:i64 } } internal
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.Global("tab")
	agg, ok := tab.Init.(*ConstAggregate)
	if !ok || len(agg.Elems) != 3 {
		t.Fatalf("tab init = %#v", tab.Init)
	}
	if agg.Elems[0] != Value(m.Global("a")) {
		t.Fatalf("elem 0 = %v", agg.Elems[0])
	}
	if _, isNull := agg.Elems[1].(*ConstNull); !isNull {
		t.Fatalf("elem 1 = %v", agg.Elems[1])
	}
	if agg.Elems[2] != Value(m.Func("f")) {
		t.Fatalf("elem 2 = %v", agg.Elems[2])
	}
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Fatal("aggregate round-trip mismatch")
	}
}
