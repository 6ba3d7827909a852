package core

import (
	"fmt"
	"testing"

	"github.com/pip-analysis/pip/internal/ir"
)

// lineageBase is figure1IR's shape with a second function; the lineage
// tests append a function to it and delete one from it.
const lineageBase = `
module "lineage"
global @x : i32 = 0:i32 internal
global @p : ptr = @x export
declare func @getPtr() -> ptr

func @callMe(%q: ptr) export {
entry:
  %w = alloca ptr
  store %q, %w
  %r = call ptr, @getPtr()
  ret
}

func @keep(%a: ptr) -> ptr internal {
entry:
  store %a, @p
  ret %a
}
`

// lineageAppended is lineageBase plus one function.
const lineageAppended = lineageBase + `
func @added(%b: ptr) export {
entry:
  %c = load ptr, @p
  store %c, %b
  ret
}
`

// lineageDeleted is lineageBase without @keep.
const lineageDeleted = `
module "lineage"
global @x : i32 = 0:i32 internal
global @p : ptr = @x export
declare func @getPtr() -> ptr

func @callMe(%q: ptr) export {
entry:
  %w = alloca ptr
  store %q, %w
  %r = call ptr, @getPtr()
  ret
}
`

func parseIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// problemText renders every field of a problem; nil and empty slices
// print alike.
func problemText(p *Problem) string { return fmt.Sprintf("%+v", *p) }

// checkSameGen asserts that two generations of one module resolve every
// value to variables of the same name.
func checkSameGen(t *testing.T, got, want *Gen) {
	t.Helper()
	for v, id := range want.VarOf {
		if g := got.Problem.Names[got.VarOf[v]]; g != want.Problem.Names[id] {
			t.Fatalf("VarOf[%s] = %s, want %s", v.Ident(), g, want.Problem.Names[id])
		}
	}
	for v, id := range want.MemOf {
		if g := got.Problem.Names[got.MemOf[v]]; g != want.Problem.Names[id] {
			t.Fatalf("MemOf[%s] = %s, want %s", v.Ident(), g, want.Problem.Names[id])
		}
	}
	for f, id := range want.RetOf {
		if g := got.Problem.Names[got.RetOf[f]]; g != want.Problem.Names[id] {
			t.Fatalf("RetOf[%s] = %s, want %s", f.FName, g, want.Problem.Names[id])
		}
	}
}

func TestGenerateAgainstPreviousAppends(t *testing.T) {
	prev := Generate(parseIR(t, lineageBase)).Problem
	m := parseIR(t, lineageAppended)
	fresh := Generate(m)
	g := GenerateWith(m, nil, prev)
	p := g.Problem
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, name := range prev.Names {
		if p.Names[id] != name {
			t.Fatalf("variable %d renamed %s -> %s", id, name, p.Names[id])
		}
	}
	if p.NumVars() != fresh.Problem.NumVars() || len(p.Order) != p.NumVars() {
		t.Fatalf("appending grew %d -> %d vars (order %d), want %d", prev.NumVars(), p.NumVars(), len(p.Order), fresh.Problem.NumVars())
	}
	for i, v := range p.Order {
		if p.Names[v] != fresh.Problem.Names[i] {
			t.Fatalf("order[%d] = %s, want %s", i, p.Names[v], fresh.Problem.Names[i])
		}
	}
	checkSameGen(t, g, fresh)

	// The summary delta is a pure addition.
	d := DiffSummaries(BuildSummary(prev), BuildSummary(p))
	if !d.Monotone() || d.Added() == 0 {
		t.Fatalf("append should diff as a monotone addition: retyped %v, removed %d, added %d", d.Retyped, d.Removed(), d.Added())
	}

	// Compacting restores the from-scratch problem exactly.
	if got, want := problemText(p.Compact()), problemText(fresh.Problem); got != want {
		t.Fatalf("compacted problem differs from scratch\n got %s\nwant %s", got, want)
	}
	// The dump of the renumbered solve reads like the from-scratch one.
	for _, cfg := range []Config{DefaultConfig(), MustParseConfig("IP+WL(FIFO)"), MustParseConfig("EP+OVS+WL(LRF)+OCD")} {
		if got, want := MustSolve(p, cfg).Dump(), MustSolve(fresh.Problem, cfg).Dump(); got != want {
			t.Fatalf("%v: dump differs from scratch\n got %s\nwant %s", cfg, got, want)
		}
	}
}

func TestGenerateAgainstPreviousDeletes(t *testing.T) {
	prev := Generate(parseIR(t, lineageBase)).Problem
	m := parseIR(t, lineageDeleted)
	fresh := Generate(m)
	g := GenerateWith(m, nil, prev)
	p := g.Problem
	if p.NumVars() != prev.NumVars() || len(p.Order) != fresh.Problem.NumVars() {
		t.Fatalf("deleting kept %d of %d vars (order %d), want all kept and %d live",
			p.NumVars(), prev.NumVars(), len(p.Order), fresh.Problem.NumVars())
	}
	live := make([]bool, p.NumVars())
	for _, v := range p.Order {
		live[v] = true
	}
	dead := 0
	for v := range live {
		if live[v] {
			continue
		}
		dead++
		if p.Names[v] != prev.Names[v] || p.Kind[v] != prev.Kind[v] ||
			p.PtrCompat[v] != prev.PtrCompat[v] || p.Flags[v] != 0 {
			t.Fatalf("dead variable %d is %s/%v/%v/%v, want %s/%v/%v with no flags", v,
				p.Names[v], p.Kind[v], p.PtrCompat[v], p.Flags[v], prev.Names[v], prev.Kind[v], prev.PtrCompat[v])
		}
	}
	if dead == 0 {
		t.Fatal("deleting @keep left no dead variable")
	}
	d := DiffSummaries(BuildSummary(prev), BuildSummary(p))
	if d.Retyped || d.Removed() == 0 {
		t.Fatalf("delete should diff as a removal: retyped %v, removed %d", d.Retyped, d.Removed())
	}
	checkSameGen(t, g, fresh)
	if got, want := MustSolve(p, DefaultConfig()).Dump(), MustSolve(fresh.Problem, DefaultConfig()).Dump(); got != want {
		t.Fatalf("dump shows dead variables\n got %s\nwant %s", got, want)
	}

	// Compacting drops the dead IDs and moves the Gen with it.
	q := p.Compact()
	if got, want := problemText(q), problemText(fresh.Problem); got != want {
		t.Fatalf("compacted problem differs from scratch\n got %s\nwant %s", got, want)
	}
	c := g.Clone()
	c.UseCompacted(q)
	if c.Problem != q || g.Problem != p {
		t.Fatal("UseCompacted must move the clone only")
	}
	checkSameGen(t, c, fresh)
	checkSameGen(t, g, fresh) // the original's maps are untouched
	for v, id := range c.VarOf {
		if id != fresh.VarOf[v] {
			t.Fatalf("compacted VarOf[%s] = %d, want %d", v.Ident(), id, fresh.VarOf[v])
		}
	}
	c.UseCompacted(q) // already compact: no-op
	if q.Compact() != q {
		t.Fatal("compacting a compact problem must return it")
	}
}

func TestGenerateAgainstPreviousKeepsIdentity(t *testing.T) {
	m := parseIR(t, lineageBase)
	prev := Generate(m).Problem
	g := GenerateWith(m, nil, prev)
	if g.Problem.Order != nil {
		t.Fatal("an unchanged numbering needs no Order")
	}
	if got, want := problemText(g.Problem), problemText(prev); got != want {
		t.Fatalf("regenerating an unchanged module renumbered it\n got %s\nwant %s", got, want)
	}
}

func TestGenerateAgainstPreviousNeedsUniqueNames(t *testing.T) {
	m := parseIR(t, lineageAppended)
	fresh := problemText(Generate(m).Problem)

	// Duplicate names in the previous problem: no table.
	prev := Generate(parseIR(t, lineageBase)).Problem.Clone()
	prev.Names[1] = prev.Names[0]
	if got := problemText(GenerateWith(m, nil, prev).Problem); got != fresh {
		t.Fatalf("duplicate previous names must number from scratch\n got %s\nwant %s", got, fresh)
	}

	// A module that generates one name twice: %x's alloca memory and the
	// register %x.mem are both "@f.%x.mem".
	dup := parseIR(t, `
module "dup"
func @f() export {
entry:
  %x = alloca ptr
  %x.mem = load ptr, %x
  ret
}
`)
	want := problemText(Generate(dup).Problem)
	other := Generate(parseIR(t, lineageBase)).Problem
	if got := problemText(GenerateWith(dup, nil, other).Problem); got != want {
		t.Fatalf("duplicate generated names must number from scratch\n got %s\nwant %s", got, want)
	}
}

func TestValidateRejectsBadOrder(t *testing.T) {
	p := NewProblem()
	p.AddVar("a", Register, true)
	p.Order = []VarID{1}
	if err := p.Validate(); err == nil {
		t.Fatal("an order naming a missing variable must not validate")
	}
}
