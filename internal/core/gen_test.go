package core

import (
	"testing"

	"github.com/pip-analysis/pip/internal/ir"
)

// figure1IR is the paper's Figure 1 program in MIR.
const figure1IR = `
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

func genFromIR(t *testing.T, src string) (*Gen, *ir.Module) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	g := Generate(m)
	if err := g.Problem.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, m
}

// points returns Sol for a named value, mapped back to readable names.
func points(t *testing.T, g *Gen, sol *Solution, v VarID) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, x := range sol.PointsTo(v) {
		if x == OmegaPointee {
			out["Ω"] = true
		} else {
			out[g.Problem.Names[x]] = true
		}
	}
	return out
}

func TestGenerateFigure1(t *testing.T) {
	g, m := genFromIR(t, figure1IR)
	callMe := m.Func("callMe")
	sol := MustSolve(g.Problem, DefaultConfig())

	pMem := g.MemOf[m.Global("p")]
	qVar := g.VarOf[callMe.Params[0]]
	var rVar, r2Var VarID
	var wMem VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "r":
			rVar = g.VarOf[in]
		case "r2":
			r2Var = g.VarOf[in]
		case "w":
			wMem = g.MemOf[in]
		}
	})

	// The paper's claim: p, q, and r may target x, z, or external memory,
	// but never y. Only r (via r2) may target w.
	for name, v := range map[string]VarID{"p": pMem, "q": qVar, "r": rVar} {
		got := points(t, g, sol, v)
		if !got["@x"] || !got["@z"] || !got["Ω"] {
			t.Fatalf("Sol(%s) = %v, want ⊇ {@x, @z, Ω}", name, got)
		}
		if got["@y"] {
			t.Fatalf("Sol(%s) includes @y", name)
		}
		if got[g.Problem.Names[wMem]] {
			t.Fatalf("Sol(%s) includes non-escaping w", name)
		}
	}
	r2 := points(t, g, sol, r2Var)
	if !r2[g.Problem.Names[wMem]] {
		t.Fatalf("Sol(r2) = %v, want to include w", r2)
	}
	if sol.Escaped(wMem) {
		t.Fatal("w escaped")
	}
	if !sol.Escaped(g.MemOf[m.Global("z")]) || !sol.Escaped(pMem) {
		t.Fatal("exported globals must escape")
	}
	if sol.Escaped(g.MemOf[m.Global("y")]) {
		t.Fatal("static y must not escape")
	}
}

func TestGenerateStaticOnlyModuleIsClosed(t *testing.T) {
	// A module with only internal definitions and no external calls has no
	// externally accessible memory at all.
	src := `
module "closed"
global @a : ptr = null internal
global @b : i32 = 0:i32 internal

func @main() internal {
entry:
  %t = alloca ptr
  store @b, %t
  %v = load ptr, %t
  store %v, @a
  ret
}
`
	g, _ := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	if ext := sol.ExternalSet(); len(ext) != 0 {
		t.Fatalf("closed module has external locations: %v", ext)
	}
	for v := VarID(0); v < VarID(g.Problem.NumVars()); v++ {
		if g.Problem.PtrCompat[v] && sol.PointsToExternal(v) {
			t.Fatalf("%s points to external memory in a closed module", g.Problem.Names[v])
		}
	}
}

func TestGenerateMallocFreeSummaries(t *testing.T) {
	src := `
module "heap"
declare func @malloc(i64) -> ptr
declare func @free(ptr)

func @build() -> ptr internal {
entry:
  %h1 = call ptr, @malloc(8:i64)
  %h2 = call ptr, @malloc(8:i64)
  %c = icmp eq, %h1, %h2
  condbr %c, a, b
a:
  %fr = call void, @free(%h1)
  ret %h1
b:
  ret %h2
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	var h1, h2 VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "h1":
			h1 = g.VarOf[in]
		case "h2":
			h2 = g.VarOf[in]
		}
	})
	s1, s2 := points(t, g, sol, h1), points(t, g, sol, h2)
	if len(s1) != 1 || len(s2) != 1 {
		t.Fatalf("heap pointers should have singleton per-site sets: %v %v", s1, s2)
	}
	for k := range s1 {
		if s2[k] {
			t.Fatalf("distinct malloc sites share an abstract location: %v %v", s1, s2)
		}
	}
	// malloc has a summary: calling it must not make arguments escape or
	// poison the result with Ω.
	if sol.PointsToExternal(h1) {
		t.Fatal("malloc result polluted with external memory")
	}
	// free must add no constraints at all.
	ret := g.RetOf[m.Func("build")]
	got := points(t, g, sol, ret)
	if len(got) != 2 {
		t.Fatalf("Sol($ret) = %v, want both heap sites", got)
	}
}

func TestGenerateIndirectCalls(t *testing.T) {
	src := `
module "fp"
global @handler : ptr = @impl internal

func @impl(%a: ptr) -> ptr internal {
entry:
  ret %a
}

func @run(%x: ptr) -> ptr internal {
entry:
  %f = load ptr, @handler
  %r = call ptr, %f(%x)
  ret %r
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	run := m.Func("run")
	impl := m.Func("impl")

	// The indirect call resolves to impl, so impl's parameter receives
	// run's argument and run's result receives impl's return (identity).
	implParam := g.VarOf[impl.Params[0]]
	runRet := g.RetOf[run]

	// Give run's parameter a concrete pointee via another caller.
	// Here, simply: impl's param flows from run's %x which has no pointees,
	// so check the call graph plumbing instead: the return of run must be
	// connected to impl's return.
	_ = implParam
	var rVar VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.IName == "r" {
			rVar = g.VarOf[in]
		}
	})
	// No escapes anywhere: all internal, no external calls.
	if len(sol.ExternalSet()) != 0 {
		t.Fatalf("unexpected external locations: %v", sol.ExternalSet())
	}
	if sol.PointsToExternal(rVar) || sol.PointsToExternal(runRet) {
		t.Fatal("indirect call to internal function must not produce unknown pointees")
	}
}

func TestGenerateIndirectCallFlow(t *testing.T) {
	src := `
module "fpflow"
global @g : i32 = 0:i32 internal
global @handler : ptr = @impl internal

func @impl(%a: ptr) -> ptr internal {
entry:
  ret %a
}

func @run() -> ptr internal {
entry:
  %f = load ptr, @handler
  %r = call ptr, %f(@g)
  ret %r
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	var rVar VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.IName == "r" {
			rVar = g.VarOf[in]
		}
	})
	got := points(t, g, sol, rVar)
	if !got["@g"] || len(got) != 1 {
		t.Fatalf("Sol(r) = %v, want exactly {@g} through the indirect call", got)
	}
}

func TestGeneratePointerIntCasts(t *testing.T) {
	src := `
module "casts"
global @secret : ptr = null internal
global @leaked : ptr = null internal

func @f() internal {
entry:
  %s = alloca i32
  store %s, @leaked
  %pl = load ptr, @leaked
  %i = ptrtoint %pl
  %q = inttoptr %i
  store %q, @secret
  ret
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	var sMem, qVar VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "s":
			sMem = g.MemOf[in]
		case "q":
			qVar = g.VarOf[in]
		}
	})
	// ptrtoint exposes %s (it is a pointee of %pl): it becomes externally
	// accessible, and the inttoptr result may target it again.
	if !sol.Escaped(sMem) {
		t.Fatal("ptrtoint must expose the pointee")
	}
	if !sol.PointsToExternal(qVar) {
		t.Fatal("inttoptr result must have unknown origin")
	}
	got := points(t, g, sol, qVar)
	if !got[g.Problem.Names[sMem]] {
		t.Fatalf("Sol(q) = %v, must include the exposed alloca", got)
	}
}

func TestGeneratePointerSmuggling(t *testing.T) {
	// Storing a pointer into memory, then loading it back as a scalar and
	// storing that scalar elsewhere: the pointee must be treated as
	// exposed (pointer smuggling, Section III-C).
	src := `
module "smuggle"
func @f(%dst: ptr) export {
entry:
  %x = alloca i32
  %box = alloca ptr
  store %x, %box
  %raw = load i64, %box
  store %raw, %dst
  ret
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	var xMem VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if in.IName == "x" {
			xMem = g.MemOf[in]
		}
	})
	if !sol.Escaped(xMem) {
		t.Fatal("smuggled pointer target must be externally accessible")
	}
}

func TestGenerateMemcpyTransfersPointees(t *testing.T) {
	src := `
module "mc"
global @a : i32 = 0:i32 internal

func @f() -> ptr internal {
entry:
  %src = alloca ptr
  %dst = alloca ptr
  store @a, %src
  memcpy %dst, %src, 8:i64
  %out = load ptr, %dst
  ret %out
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	ret := g.RetOf[m.Func("f")]
	got := points(t, g, sol, ret)
	if !got["@a"] {
		t.Fatalf("Sol(ret) = %v, memcpy must transfer pointees", got)
	}
	if got["Ω"] {
		t.Fatalf("Sol(ret) = %v, memcpy of private memory must stay private", got)
	}
}

func TestGenerateMemcpyViaDeclaredFunction(t *testing.T) {
	src := `
module "mc2"
global @a : i32 = 0:i32 internal
declare func @memcpy(ptr, ptr, i64) -> ptr

func @f() -> ptr internal {
entry:
  %src = alloca ptr
  %dst = alloca ptr
  store @a, %src
  %r = call ptr, @memcpy(%dst, %src, 8:i64)
  %out = load ptr, %dst
  ret %out
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	ret := g.RetOf[m.Func("f")]
	got := points(t, g, sol, ret)
	if !got["@a"] {
		t.Fatalf("Sol(ret) = %v, memcpy summary must transfer pointees", got)
	}
	if got["Ω"] {
		t.Fatalf("Sol(ret) = %v, summary call must not leak Ω", got)
	}
}

func TestGenerateExternalCallEscapesArguments(t *testing.T) {
	src := `
module "escape"
declare func @mystery(ptr) -> ptr

func @f() -> ptr internal {
entry:
  %x = alloca i32
  %r = call ptr, @mystery(%x)
  ret %r
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	var xMem, rVar VarID
	m.ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		switch in.IName {
		case "x":
			xMem = g.MemOf[in]
		case "r":
			rVar = g.VarOf[in]
		}
	})
	if !sol.Escaped(xMem) {
		t.Fatal("argument to external call must escape")
	}
	if !sol.PointsToExternal(rVar) {
		t.Fatal("result of external call must have unknown origin")
	}
	// The external module may return the escaped x.
	got := points(t, g, sol, rVar)
	if !got[g.Problem.Names[xMem]] {
		t.Fatalf("Sol(r) = %v, must include escaped x", got)
	}
}

func TestGenerateEscapedFunctionParams(t *testing.T) {
	// An internal function whose address escapes can be called from
	// external modules: its parameters gain unknown origins.
	src := `
module "fnescape"
declare func @register(ptr)

func @cb(%arg: ptr) internal {
entry:
  ret
}

func @setup() export {
entry:
  call void, @register(@cb)
  ret
}
`
	g, m := genFromIR(t, src)
	sol := MustSolve(g.Problem, DefaultConfig())
	cb := m.Func("cb")
	if !sol.Escaped(g.MemOf[cb]) {
		t.Fatal("cb's address was passed to an external call: it must escape")
	}
	arg := g.VarOf[cb.Params[0]]
	if !sol.PointsToExternal(arg) {
		t.Fatal("parameter of escaped function must have unknown origin")
	}
}

func TestGenerateAllConfigsOnIRModules(t *testing.T) {
	sources := []string{figure1IR, `
module "mix"
struct %Node = { ptr, i64 }
global @head : ptr = null internal
declare func @ext(ptr) -> ptr
declare func @malloc(i64) -> ptr

func @push(%v: ptr) export {
entry:
  %n = call ptr, @malloc(16:i64)
  %slot = gep %Node, %n, 0:i64, 0:i64
  %old = load ptr, @head
  store %old, %slot
  store %n, @head
  %e = call ptr, @ext(%n)
  store %e, %slot
  ret
}

func @pop() -> ptr export {
entry:
  %h = load ptr, @head
  %slot = gep %Node, %h, 0:i64, 0:i64
  %next = load ptr, %slot
  store %next, @head
  ret %h
}
`}
	for si, src := range sources {
		g, _ := genFromIR(t, src)
		want := ReferenceSolve(g.Problem)
		for _, cfg := range AllConfigs() {
			sol, err := Solve(g.Problem, cfg, SolveOptions{})
			if err != nil {
				t.Fatalf("source %d, %s: %v", si, cfg, err)
			}
			if sol.Canonical() != want {
				t.Fatalf("source %d: %s disagrees with reference", si, cfg)
			}
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	g, m := genFromIR(t, figure1IR)
	if g.Problem.NumVars() == 0 || g.Problem.NumConstraints() == 0 {
		t.Fatal("empty problem from non-empty module")
	}
	// Every global and function has a memory location.
	for _, gl := range m.Globals {
		if _, ok := g.MemOf[gl]; !ok {
			t.Fatalf("global %s has no memory location", gl.GName)
		}
	}
	for _, f := range m.Funcs {
		if _, ok := g.MemOf[f]; !ok {
			t.Fatalf("function %s has no memory location", f.FName)
		}
	}
}
