package core

import (
	"math/rand"
	"strings"
	"testing"
)

// buildFigure3 reproduces the constraint set of the paper's Figure 3/4:
//
//	p ⊇ {x}   q ⊇ {y}   r ⊇ p   *r ⊇ q   s ⊇ *p
//
// Expected solved state (Figure 4): r ⊇ {x}, x ⊇ {y}, s ⊇ {y} (after
// inference x ⊇ q gives x ⊇ {y}; s ⊇ *p dereferences p = {x} so s ⊇ x).
func buildFigure3(t *testing.T) (*Problem, map[string]VarID) {
	t.Helper()
	p := NewProblem()
	ids := map[string]VarID{}
	// x and y are memory locations; x can hold pointers, y cannot be a
	// pointer in the figure (y ∉ P), but to match the figure exactly we
	// make x pointer-compatible and y not.
	ids["x"] = p.AddVar("x", Memory, true)
	ids["y"] = p.AddVar("y", Memory, false)
	for _, n := range []string{"p", "q", "r", "s"} {
		ids[n] = p.AddVar(n, Register, true)
	}
	p.AddBase(ids["p"], ids["x"])
	p.AddBase(ids["q"], ids["y"])
	p.AddSimple(ids["r"], ids["p"]) // r ⊇ p
	p.AddStore(ids["r"], ids["q"])  // *r ⊇ q
	p.AddLoad(ids["s"], ids["p"])   // s ⊇ *p
	return p, ids
}

func solSet(t *testing.T, sol *Solution, v VarID) map[VarID]bool {
	t.Helper()
	out := map[VarID]bool{}
	for _, x := range sol.PointsTo(v) {
		out[x] = true
	}
	return out
}

func TestFigure3AllConfigs(t *testing.T) {
	for _, cfg := range AllConfigs() {
		prob, ids := buildFigure3(t)
		sol, err := Solve(prob, cfg, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if got := solSet(t, sol, ids["p"]); !got[ids["x"]] || len(got) != 1 {
			t.Fatalf("%s: Sol(p) = %v, want {x}", cfg, got)
		}
		if got := solSet(t, sol, ids["r"]); !got[ids["x"]] || len(got) != 1 {
			t.Fatalf("%s: Sol(r) = %v, want {x}", cfg, got)
		}
		if got := solSet(t, sol, ids["x"]); !got[ids["y"]] || len(got) != 1 {
			t.Fatalf("%s: Sol(x) = %v, want {y}", cfg, got)
		}
		if got := solSet(t, sol, ids["s"]); !got[ids["y"]] || len(got) != 1 {
			t.Fatalf("%s: Sol(s) = %v, want {y}", cfg, got)
		}
	}
}

// buildFigure1 models the paper's Figure 1 program at the constraint level:
//
//	static int x, y; int z; extern int* getPtr();
//	int* p = &x;
//	void callMe(int* q) { int w; int* r = getPtr(); if (!r) r = &w; }
//
// p, z, callMe are exported; getPtr is imported.
func buildFigure1(t *testing.T) (*Problem, map[string]VarID) {
	t.Helper()
	p := NewProblem()
	ids := map[string]VarID{}
	ids["x"] = p.AddVar("x", Memory, false)
	ids["y"] = p.AddVar("y", Memory, false)
	ids["z"] = p.AddVar("z", Memory, false)
	ids["p"] = p.AddVar("p", Memory, true)
	ids["w"] = p.AddVar("w", Memory, false)
	ids["callMe"] = p.AddVar("callMe", Memory, false)
	ids["getPtr"] = p.AddVar("getPtr", Memory, false)
	ids["q"] = p.AddVar("q", Register, true)
	ids["r"] = p.AddVar("r", Register, true)
	// Dummy pointer for the direct call to getPtr (Figure 6).
	ids["&getPtr"] = p.AddVar("&getPtr", Register, true)

	p.AddBase(ids["p"], ids["x"]) // int* p = &x
	p.AddBase(ids["&getPtr"], ids["getPtr"])
	p.AddBase(ids["r"], ids["w"])            // r = &w (one arm of the phi)
	p.AddCall(ids["&getPtr"], ids["r"], nil) // r = getPtr()
	p.AddFunc(ids["callMe"], NoVar, []VarID{ids["q"]})

	// Escape seeding: exported p, z, callMe; imported getPtr.
	p.SetFlag(ids["p"], FlagExternal)
	p.SetFlag(ids["z"], FlagExternal)
	p.SetFlag(ids["callMe"], FlagExternal)
	p.SetFlag(ids["getPtr"], FlagExternal)
	p.SetFlag(ids["getPtr"], FlagImpFunc)
	return p, ids
}

func TestFigure1Semantics(t *testing.T) {
	for _, cfg := range AllConfigs() {
		prob, ids := buildFigure1(t)
		sol, err := Solve(prob, cfg, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		// All of p, q, r may point to x, z, and external memory, never y.
		for _, name := range []string{"p", "q", "r"} {
			got := solSet(t, sol, ids[name])
			if !got[ids["x"]] {
				t.Fatalf("%s: Sol(%s) misses x: %v", cfg, name, got)
			}
			if !got[ids["z"]] {
				t.Fatalf("%s: Sol(%s) misses z: %v", cfg, name, got)
			}
			if !got[OmegaPointee] {
				t.Fatalf("%s: Sol(%s) misses Ω", cfg, name)
			}
			if got[ids["y"]] {
				t.Fatalf("%s: Sol(%s) soundly includes private y: %v", cfg, name, got)
			}
		}
		// Only r may target w; w must not escape.
		if got := solSet(t, sol, ids["r"]); !got[ids["w"]] {
			t.Fatalf("%s: Sol(r) misses w", cfg)
		}
		for _, name := range []string{"p", "q"} {
			if got := solSet(t, sol, ids[name]); got[ids["w"]] {
				t.Fatalf("%s: Sol(%s) includes non-escaped w", cfg, name)
			}
		}
		if sol.Escaped(ids["w"]) || sol.Escaped(ids["y"]) {
			t.Fatalf("%s: non-escaping locals reported escaped", cfg)
		}
		for _, name := range []string{"x", "z", "p", "callMe", "getPtr"} {
			if !sol.Escaped(ids[name]) {
				t.Fatalf("%s: %s should be externally accessible", cfg, name)
			}
		}
	}
}

// randomProblem builds a deterministic pseudo-random problem exercising
// every constraint type and flag.
func randomProblem(seed int64, nVars, nCons int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	var mems []VarID
	for i := 0; i < nVars; i++ {
		kind := Register
		compat := true
		r := rng.Intn(10)
		switch {
		case r < 4: // memory, pointer-compatible
			kind = Memory
		case r < 6: // memory, scalar cell
			kind = Memory
			compat = false
		case r < 9: // register, pointer
		default: // register-ish scalar var
			compat = false
		}
		id := p.AddVar("", kind, compat)
		if kind == Memory {
			mems = append(mems, id)
		}
	}
	if len(mems) == 0 {
		mems = append(mems, p.AddVar("", Memory, true))
		nVars++
	}
	anyVar := func() VarID { return VarID(rng.Intn(nVars)) }
	anyMem := func() VarID { return mems[rng.Intn(len(mems))] }
	for i := 0; i < nCons; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			p.AddBase(anyVar(), anyMem())
		case 3, 4, 5:
			p.AddSimple(anyVar(), anyVar())
		case 6:
			p.AddLoad(anyVar(), anyVar())
		case 7:
			p.AddStore(anyVar(), anyVar())
		case 8:
			// Function with 0-2 args; functions live on memory vars.
			f := anyMem()
			ret := NoVar
			if rng.Intn(2) == 0 {
				ret = anyVar()
			}
			var args []VarID
			for a := rng.Intn(3); a > 0; a-- {
				if rng.Intn(4) == 0 {
					args = append(args, NoVar)
				} else {
					args = append(args, anyVar())
				}
			}
			p.AddFunc(f, ret, args)
		case 9:
			tgt := anyVar()
			ret := NoVar
			if rng.Intn(2) == 0 {
				ret = anyVar()
			}
			var args []VarID
			for a := rng.Intn(3); a > 0; a-- {
				args = append(args, anyVar())
			}
			p.AddCall(tgt, ret, args)
		case 10:
			flags := []Flags{FlagExternal, FlagPointsExt, FlagEscapedPointees,
				FlagStoreScalar, FlagLoadScalar}
			p.SetFlag(anyVar(), flags[rng.Intn(len(flags))])
		case 11:
			p.SetFlag(anyMem(), FlagImpFunc)
		}
	}
	return p
}

// TestAllConfigsAgreeWithReference is the paper's solution-validation step:
// every valid configuration must produce the exact same solution, which
// must also match the independent brute-force reference solver.
func TestAllConfigsAgreeWithReference(t *testing.T) {
	configs := AllConfigs()
	problems := []*Problem{}
	if fp, _ := buildFigure3(t); fp != nil {
		problems = append(problems, fp)
	}
	if fp, _ := buildFigure1(t); fp != nil {
		problems = append(problems, fp)
	}
	for seed := int64(1); seed <= 12; seed++ {
		problems = append(problems, randomProblem(seed, 18, 36))
	}
	for pi, prob := range problems {
		want := ReferenceSolve(prob)
		for _, cfg := range configs {
			sol, err := Solve(prob, cfg, SolveOptions{})
			if err != nil {
				t.Fatalf("problem %d, %s: %v", pi, cfg, err)
			}
			if got := sol.Canonical(); got != want {
				t.Fatalf("problem %d: configuration %s disagrees with reference\n--- got\n%s--- want\n%s",
					pi, cfg, got, want)
			}
		}
	}
}

// TestLargerRandomAgreement runs fewer, larger random instances through the
// interesting configuration corners.
func TestLargerRandomAgreement(t *testing.T) {
	configs := []Config{
		MustParseConfig("EP+Naive"),
		MustParseConfig("EP+OVS+WL(LRF)+OCD"),
		MustParseConfig("EP+WL(TOPO)+HCD+LCD+DP"),
		MustParseConfig("IP+Naive"),
		MustParseConfig("IP+WL(FIFO)"),
		MustParseConfig("IP+WL(FIFO)+PIP"),
		MustParseConfig("IP+WL(FIFO)+LCD+DP"),
		MustParseConfig("IP+OVS+WL(2LRF)+HCD+DP+PIP"),
		MustParseConfig("IP+OVS+WL(LIFO)+OCD+DP+PIP"),
	}
	for seed := int64(100); seed < 106; seed++ {
		prob := randomProblem(seed, 120, 300)
		want := ReferenceSolve(prob)
		for _, cfg := range configs {
			sol, err := Solve(prob, cfg, SolveOptions{})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, cfg, err)
			}
			if got := sol.Canonical(); got != want {
				t.Fatalf("seed %d: configuration %s disagrees with reference", seed, cfg)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rep: EP, Solver: Naive, PIP: true},
		{Rep: EP, Solver: Naive, DP: true},
		{Rep: EP, Solver: Naive, Order: LIFO},
		{Rep: EP, Solver: Worklist, OCD: true, LCD: true},
		{Rep: EP, Solver: Worklist, OCD: true, HCD: true},
		{Rep: EP, Solver: Worklist, PIP: true},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestAllConfigsValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range AllConfigs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("AllConfigs produced invalid %s: %v", c, err)
		}
		key := c.String()
		if seen[key] {
			t.Fatalf("duplicate configuration %s", key)
		}
		seen[key] = true
	}
	if len(seen) != 304 {
		t.Fatalf("got %d configurations, want 304 (documented superset of the paper's 208)", len(seen))
	}
}

func TestConfigStringRoundTrip(t *testing.T) {
	for _, c := range AllConfigs() {
		parsed, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if parsed != c {
			t.Fatalf("round-trip mismatch: %s vs %s", c, parsed)
		}
	}
	if _, err := ParseConfig("IP+WL(WRONG)"); err == nil {
		t.Fatal("bad order accepted")
	}
	if _, err := ParseConfig("IP+XYZ+Naive"); err == nil {
		t.Fatal("bad component accepted")
	}
	if _, err := ParseConfig("IP"); err == nil {
		t.Fatal("missing solver accepted")
	}
	// PAR names no configuration component.
	if _, err := ParseConfig("IP+WL(FIFO)+PIP+PAR"); err == nil {
		t.Fatal("removed PAR marker accepted")
	}
}

func TestSolutionQueries(t *testing.T) {
	prob, ids := buildFigure1(t)
	sol := MustSolve(prob, DefaultConfig())
	// q and p may share targets (both include x and external memory).
	if !sol.MayShareTargets(ids["q"], ids["p"]) {
		t.Fatal("q and p should share targets")
	}
	// Two pointers with unknown origin share Ω.
	if !sol.MayShareTargets(ids["q"], ids["r"]) {
		t.Fatal("q and r should share external targets")
	}
	if !sol.PointsToExternal(ids["q"]) {
		t.Fatal("q should point to external memory")
	}
	ext := sol.ExternalSet()
	if len(ext) == 0 {
		t.Fatal("external set empty")
	}
	if sol.Stats.Duration <= 0 {
		t.Fatal("missing duration")
	}
	dump := sol.Dump()
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
}

func TestExplicitPointeeCountPIPvsNoPIP(t *testing.T) {
	// On an escape-heavy problem PIP must produce no more explicit
	// pointees than the same configuration without PIP.
	prob := escapeHeavyProblem(40)
	pip := MustSolve(prob, MustParseConfig("IP+WL(FIFO)+PIP"))
	noPip := MustSolve(prob, MustParseConfig("IP+WL(FIFO)"))
	if pip.CountExplicitPointees() > noPip.CountExplicitPointees() {
		t.Fatalf("PIP increased explicit pointees: %d > %d",
			pip.CountExplicitPointees(), noPip.CountExplicitPointees())
	}
	if pip.Canonical() != noPip.Canonical() {
		t.Fatal("PIP changed the solution")
	}
	if noPip.CountExplicitPointees() <= 2*pip.CountExplicitPointees() {
		t.Fatalf("escape-heavy workload should show a clear PIP reduction: %d vs %d",
			noPip.CountExplicitPointees(), pip.CountExplicitPointees())
	}
}

// escapeHeavyProblem models a file with many exported globals that hold
// each other's addresses: without PIP, every exported pointer explicitly
// accumulates the full external set (doubled-up pointees).
func escapeHeavyProblem(n int) *Problem {
	p := NewProblem()
	ids := make([]VarID, n)
	for i := range ids {
		ids[i] = p.AddVar("", Memory, true)
		p.SetFlag(ids[i], FlagExternal)
	}
	for i := range ids {
		p.AddBase(ids[i], ids[(i+1)%n])
		p.AddSimple(ids[(i+3)%n], ids[i])
	}
	return p
}

func TestStatsPopulated(t *testing.T) {
	prob, _ := buildFigure1(t)
	wl := MustSolve(prob, MustParseConfig("IP+WL(FIFO)"))
	if wl.Stats.Visits == 0 {
		t.Fatal("worklist solve should count visits")
	}
	nv := MustSolve(prob, MustParseConfig("IP+Naive"))
	if nv.Stats.Passes == 0 {
		t.Fatal("naive solve should count passes")
	}
	ocd := MustSolve(escapeHeavyProblem(10), MustParseConfig("EP+WL(FIFO)+OCD"))
	if ocd.Stats.Unifications == 0 {
		t.Fatal("OCD on a cyclic problem should unify something")
	}
}

func TestProblemValidateErrors(t *testing.T) {
	p := NewProblem()
	mem := p.AddVar("m", Memory, true)
	reg := p.AddVar("r", Register, true)

	bad := NewProblem()
	bad.AddVar("m", Memory, true)
	bad.Base = append(bad.Base, Edge{Dst: 0, Src: 99})
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range base accepted")
	}

	bad2 := NewProblem()
	bad2.AddVar("a", Register, true)
	bad2.AddVar("b", Memory, true)
	bad2.Base = append(bad2.Base, Edge{Dst: 1, Src: 0}) // base targets a register
	if err := bad2.Validate(); err == nil {
		t.Fatal("base constraint on register pointee accepted")
	}

	bad3 := NewProblem()
	bad3.AddVar("a", Register, true)
	bad3.Simple = append(bad3.Simple, Edge{Dst: 7, Src: 0})
	if err := bad3.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}

	bad4 := NewProblem()
	bad4.AddVar("f", Memory, true)
	bad4.AddFunc(0, 42, nil)
	if err := bad4.Validate(); err == nil {
		t.Fatal("out-of-range func ret accepted")
	}

	bad5 := NewProblem()
	bad5.AddVar("t", Register, true)
	bad5.AddCall(0, NoVar, []VarID{88})
	if err := bad5.Validate(); err == nil {
		t.Fatal("out-of-range call arg accepted")
	}

	good := NewProblem()
	gm := good.AddVar("m", Memory, true)
	gr := good.AddVar("r", Register, true)
	good.AddBase(gr, gm)
	good.AddSimple(gr, gr)
	good.AddFunc(gm, NoVar, []VarID{NoVar, gr})
	good.AddCall(gr, NoVar, nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	_ = mem
	_ = reg
}

func TestFlagsString(t *testing.T) {
	if s := Flags(0).String(); s != "-" {
		t.Fatalf("empty flags = %q", s)
	}
	f := FlagExternal | FlagPointsExt | FlagImpFunc
	s := f.String()
	for _, frag := range []string{"Ω⊒{x}", "x⊒Ω", "ImpFunc"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("flags string %q missing %q", s, frag)
		}
	}
}

func TestVarKindAndRepStrings(t *testing.T) {
	if Register.String() != "register" || Memory.String() != "memory" {
		t.Fatal("VarKind strings")
	}
	if EP.String() != "EP" || IP.String() != "IP" {
		t.Fatal("Rep strings")
	}
	if Topo.String() != "TOPO" || LRF2.String() != "2LRF" {
		t.Fatal("Order strings")
	}
	if Order(99).String() == "" {
		t.Fatal("unknown order should still render")
	}
}

func TestNumConstraintsCountsFlags(t *testing.T) {
	p := NewProblem()
	v := p.AddVar("v", Memory, true)
	base := p.NumConstraints()
	p.SetFlag(v, FlagExternal)
	p.SetFlag(v, FlagImpFunc)
	if p.NumConstraints() != base+2 {
		t.Fatalf("flag bits not counted: %d vs %d", p.NumConstraints(), base)
	}
}
