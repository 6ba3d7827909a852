package core

import (
	"testing"

	"github.com/pip-analysis/pip/internal/ir"
)

func genWith(t *testing.T, src string, sums map[string]Summary) (*Gen, *ir.Module) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := GenerateWith(m, sums, nil)
	if err := g.Problem.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, m
}

const strchrSrc = `
module "s"
global @buf : [16 x i8] = zero:[16 x i8] internal
declare func @strchr(ptr, i32) -> ptr

func @find() -> ptr internal {
entry:
  %r = call ptr, @strchr(@buf, 47:i32)
  ret %r
}
`

func TestSummaryRetAliasesArg(t *testing.T) {
	// Without a summary, strchr is a generic import: the argument escapes
	// and the result is unknown.
	gNone, m := genWith(t, strchrSrc, nil)
	solNone := MustSolve(gNone.Problem, DefaultConfig())
	bufNone := gNone.MemOf[m.Global("buf")]
	if !solNone.Escaped(bufNone) {
		t.Fatal("generic import must escape its argument")
	}

	// With a summary "returns into arg 0", the result points exactly at
	// the buffer and nothing escapes.
	sums := map[string]Summary{"strchr": {RetAliasesArgs: []int{0}}}
	g, m2 := genWith(t, strchrSrc, sums)
	sol := MustSolve(g.Problem, DefaultConfig())
	buf := g.MemOf[m2.Global("buf")]
	if sol.Escaped(buf) {
		t.Fatal("summarized strchr must not escape its argument")
	}
	ret := g.RetOf[m2.Func("find")]
	pts := sol.PointsTo(ret)
	if len(pts) != 1 || pts[0] != buf {
		t.Fatalf("Sol(find ret) = %v, want exactly {buf}", pts)
	}
	if sol.PointsToExternal(ret) {
		t.Fatal("summarized result must not be unknown-origin")
	}
}

func TestSummaryFreshHeapPerSite(t *testing.T) {
	src := `
module "h"
declare func @my_alloc(i64) -> ptr

func @two() internal {
entry:
  %a = call ptr, @my_alloc(8:i64)
  %b = call ptr, @my_alloc(8:i64)
  ret
}
`
	g, m := genWith(t, src, map[string]Summary{"my_alloc": {RetFreshHeap: true}})
	sol := MustSolve(g.Problem, DefaultConfig())
	var a, b VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "a":
			a = g.VarOf[in]
		case "b":
			b = g.VarOf[in]
		}
	})
	sa, sb := sol.PointsTo(a), sol.PointsTo(b)
	if len(sa) != 1 || len(sb) != 1 || sa[0] == sb[0] {
		t.Fatalf("per-site heap locations expected: %v vs %v", sa, sb)
	}
}

func TestSummaryEscapeAndUnknownInto(t *testing.T) {
	src := `
module "cb"
declare func @register_handler(ptr)
declare func @read_into(ptr)

func @setup() internal {
entry:
  %obj = alloca ptr
  %fr = call void, @register_handler(%obj)
  %slot = alloca ptr
  %fr2 = call void, @read_into(%slot)
  %got = load ptr, %slot
  ret
}
`
	sums := map[string]Summary{
		"register_handler": {EscapeArgs: []int{0}},
		"read_into":        {UnknownIntoArgs: []int{0}},
	}
	g, m := genWith(t, src, sums)
	sol := MustSolve(g.Problem, DefaultConfig())
	var obj, slot, got VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "obj":
			obj = g.MemOf[in]
		case "slot":
			slot = g.MemOf[in]
		case "got":
			got = g.VarOf[in]
		}
	})
	if !sol.Escaped(obj) {
		t.Fatal("EscapeArgs summary must escape the pointee")
	}
	if sol.Escaped(slot) {
		t.Fatal("UnknownIntoArgs must not escape the slot itself")
	}
	if !sol.PointsToExternal(got) {
		t.Fatal("value read from an out-param slot must have unknown origin")
	}
}

func TestSummaryOverridesDefault(t *testing.T) {
	// Overriding malloc with "no behaviour" removes the heap location.
	src := `
module "o"
declare func @malloc(i64) -> ptr

func @f() -> ptr internal {
entry:
  %h = call ptr, @malloc(8:i64)
  ret %h
}
`
	g, m := genWith(t, src, map[string]Summary{"malloc": {}})
	sol := MustSolve(g.Problem, DefaultConfig())
	ret := g.RetOf[m.Func("f")]
	if n := len(sol.PointsTo(ret)); n != 0 {
		t.Fatalf("overridden malloc still produced %d pointees", n)
	}
}

func TestSummaryIndirectCallUsesFuncConstraint(t *testing.T) {
	// Taking malloc's address and calling it indirectly must still return
	// heap memory (the shared per-allocator location).
	src := `
module "ind"
global @allocfn : ptr = @malloc internal
declare func @malloc(i64) -> ptr

func @f() -> ptr internal {
entry:
  %fp = load ptr, @allocfn
  %h = call ptr, %fp(8:i64)
  ret %h
}
`
	g, m := genWith(t, src, nil)
	sol := MustSolve(g.Problem, DefaultConfig())
	ret := g.RetOf[m.Func("f")]
	pts := sol.PointsTo(ret)
	if len(pts) == 0 {
		t.Fatal("indirect malloc produced no pointees")
	}
	found := false
	for _, x := range pts {
		if g.Problem.Names[x] == "heap.$malloc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("indirect malloc result should include the shared heap: %v", pts)
	}
}

func TestSummaryMaxArgIndexBeyondParams(t *testing.T) {
	// A variadic-style declaration with fewer declared params than the
	// summary references.
	src := `
module "v"
global @a : ptr = null internal
global @b : ptr = null internal
declare func @sprintf2(ptr, ...) -> i32

func @f() internal {
entry:
  %r = call i32, @sprintf2(@a, @b)
  ret
}
`
	sums := map[string]Summary{"sprintf2": {Copies: [][2]int{{0, 1}}}}
	g, m := genWith(t, src, sums)
	sol := MustSolve(g.Problem, DefaultConfig())
	_ = sol
	if g.Problem.NumVars() == 0 {
		t.Fatal("empty problem")
	}
	_ = m
}

func TestDefaultSummariesCoverPaperSet(t *testing.T) {
	d := DefaultSummaries()
	for _, name := range []string{"malloc", "free", "memcpy"} {
		if _, ok := d[name]; !ok {
			t.Fatalf("missing paper summary %s", name)
		}
	}
	if !d["malloc"].RetFreshHeap || d["malloc"].hasRet() == false {
		t.Fatal("malloc summary wrong")
	}
	if d["free"].hasRet() {
		t.Fatal("free summary wrong")
	}
	if len(d["memcpy"].Copies) != 1 {
		t.Fatal("memcpy summary wrong")
	}
	if got := (Summary{Copies: [][2]int{{3, 1}}, EscapeArgs: []int{5}}).maxArgIndex(); got != 5 {
		t.Fatalf("maxArgIndex = %d", got)
	}
}
