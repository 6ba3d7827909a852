package core

import (
	"strconv"

	"github.com/pip-analysis/pip/internal/ir"
)

// Gen is the result of analysis phase 1: the Problem plus the mapping from
// IR values back to constraint variables, which alias-analysis clients use
// to look up points-to sets for instruction operands.
type Gen struct {
	Problem *Problem
	// Module is the module the constraints were generated from. The VarOf /
	// MemOf / RetOf keys are this module's values: clients resolving names
	// against a Gen (e.g. after a cache hit returns another instance's Gen)
	// must look them up in this module, not in a structurally equal copy.
	Module *ir.Module
	// VarOf maps pointer-compatible registers, parameters, and symbol
	// addresses to their constraint variable.
	VarOf map[ir.Value]VarID
	// MemOf maps globals, functions, and allocation sites (alloca or
	// heap-allocating call instructions) to their abstract memory
	// location.
	MemOf map[ir.Value]VarID
	// RetOf maps defined functions to their return-value variable.
	RetOf map[*ir.Function]VarID
}

// genState carries phase-1 state.
type genState struct {
	Gen
	m *ir.Module
	// addrRegs caches the dummy address registers for globals/functions
	// used in operand position (Figure 6's "dummy pointer").
	addrRegs map[ir.Value]VarID
	// summaries maps imported-function names to handwritten summaries.
	summaries map[string]Summary
	// sharedHeaps holds the per-function abstract locations for heap
	// memory allocated via indirect or external calls to allocators.
	sharedHeaps map[string]VarID
	tmpCounter  int
}

// Generate converts a module into a points-to Problem, implementing the
// constraint-building rules of Sections II-A and III (escape seeding,
// pointer-integer conversions, pointer smuggling) with the default library
// summaries of Section V-B (malloc, free, memcpy).
func Generate(m *ir.Module) *Gen { return GenerateWith(m, nil, nil) }

// GenerateWith is Generate with additional handwritten summaries for
// imported functions and, for the next generation of an incremental
// lineage, the previous generation's problem. Entries in extra override
// the defaults; mapping a name to the zero Summary declares "no
// pointer-relevant behaviour". With prev set, a variable whose name is in
// prev keeps its ID there, new names are appended, and prev's retired
// names stay as dead variables (see renumber.go); if either problem's
// names are not unique, the variables are numbered from scratch.
func GenerateWith(m *ir.Module, extra map[string]Summary, prev *Problem) *Gen {
	summaries := DefaultSummaries()
	for name, s := range extra {
		summaries[name] = s
	}
	g := &genState{
		Gen: Gen{
			Problem: NewProblem(),
			Module:  m,
			VarOf:   map[ir.Value]VarID{},
			MemOf:   map[ir.Value]VarID{},
			RetOf:   map[*ir.Function]VarID{},
		},
		m:           m,
		addrRegs:    map[ir.Value]VarID{},
		summaries:   summaries,
		sharedHeaps: map[string]VarID{},
	}
	g.declareSymbols()
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			g.genFunction(f)
		}
	}
	res := g.Gen
	if prev != nil {
		res.stabilize(prev)
	}
	return &res
}

func (g *genState) declareSymbols() {
	p := g.Problem
	for _, gl := range g.m.Globals {
		v := p.AddVar("@"+gl.GName, Memory, ir.PointerCompatible(gl.Elem))
		g.MemOf[gl] = v
		if gl.Linkage != ir.Internal {
			// Exported and imported globals are externally accessible.
			p.SetFlag(v, FlagExternal)
		}
	}
	for _, f := range g.m.Funcs {
		// Function objects can be pointed to but hold no pointers.
		v := p.AddVar("@"+f.FName, Memory, false)
		g.MemOf[f] = v
		if f.Linkage != ir.Internal {
			p.SetFlag(v, FlagExternal)
		}
		switch {
		case !f.IsDecl():
			g.declareFuncConstraint(f, v)
		default:
			if sum, ok := g.summaries[f.FName]; ok {
				g.declareSummaryConstraint(f, v, sum)
			} else {
				// Generic imported function: Func(f, Ω, ⋯, Ω).
				p.SetFlag(v, FlagImpFunc)
			}
		}
	}
	// Global initializers that take addresses: global @p : ptr = @x, or
	// aggregates such as function-pointer tables (field-insensitive: all
	// symbol elements become pointees of the global).
	for _, gl := range g.m.Globals {
		if gl.Init == nil || !ir.PointerCompatible(gl.Elem) {
			continue
		}
		g.addInitPointees(g.MemOf[gl], gl.Init)
	}
}

// addInitPointees records base constraints for every symbol address inside
// an initializer value.
func (g *genState) addInitPointees(mem VarID, init ir.Value) {
	switch init := init.(type) {
	case *ir.Global:
		g.Problem.AddBase(mem, g.MemOf[init])
	case *ir.Function:
		g.Problem.AddBase(mem, g.MemOf[init])
	case *ir.ConstAggregate:
		for _, e := range init.Elems {
			if e != nil {
				g.addInitPointees(mem, e)
			}
		}
	}
}

// declareFuncConstraint creates parameter/return variables and the
// Func(f, r, a1..an) constraint for a defined function.
func (g *genState) declareFuncConstraint(f *ir.Function, fv VarID) {
	p := g.Problem
	ret := NoVar
	if ir.PointerCompatible(f.Sig.Ret) {
		ret = p.AddVar("@"+f.FName+".$ret", Register, true)
		g.RetOf[f] = ret
	}
	args := make([]VarID, len(f.Params))
	for i, prm := range f.Params {
		if ir.PointerCompatible(prm.T) {
			args[i] = p.AddVar("@"+f.FName+".%"+prm.PName, Register, true)
			g.VarOf[prm] = args[i]
		} else {
			args[i] = NoVar
		}
	}
	p.AddFunc(fv, ret, args)
}

// declareSummaryConstraint installs a Func constraint implementing a
// handwritten summary, used when the function is called indirectly or from
// external modules. Direct calls are expanded inline by genCall with
// per-call-site heap locations.
func (g *genState) declareSummaryConstraint(f *ir.Function, fv VarID, sum Summary) {
	p := g.Problem
	nArgs := len(f.Params)
	if m := sum.maxArgIndex() + 1; m > nArgs {
		nArgs = m
	}
	args := make([]VarID, nArgs)
	for i := range args {
		args[i] = NoVar
	}
	argVar := func(i int) VarID {
		if args[i] == NoVar {
			args[i] = p.AddVar("@"+f.FName+".$arg"+strconv.Itoa(i), Register, true)
		}
		return args[i]
	}
	ret := NoVar
	if sum.hasRet() {
		ret = p.AddVar("@"+f.FName+".$ret", Register, true)
	}
	if sum.RetFreshHeap {
		p.AddBase(ret, g.sharedHeapFor(f.FName))
	}
	if sum.RetUnknown {
		p.SetFlag(ret, FlagPointsExt)
	}
	for _, i := range sum.RetAliasesArgs {
		p.AddSimple(ret, argVar(i))
	}
	for _, c := range sum.Copies {
		tmp := p.AddVar("@"+f.FName+".$cpy"+strconv.Itoa(c[0])+"_"+strconv.Itoa(c[1]), Register, true)
		p.AddLoad(tmp, argVar(c[1]))
		p.AddStore(argVar(c[0]), tmp)
	}
	for _, i := range sum.EscapeArgs {
		p.SetFlag(argVar(i), FlagEscapedPointees)
	}
	for _, i := range sum.UnknownIntoArgs {
		p.SetFlag(argVar(i), FlagStoreScalar)
	}
	p.AddFunc(fv, ret, args)
}

// sharedHeapFor returns the per-allocator abstract location representing
// heap memory from indirect or external calls to the named function.
func (g *genState) sharedHeapFor(name string) VarID {
	if v, ok := g.sharedHeaps[name]; ok {
		return v
	}
	v := g.Problem.AddVar("heap.$"+name, Memory, true)
	g.sharedHeaps[name] = v
	return v
}

// addrOf returns the dummy address register for a symbol operand.
func (g *genState) addrOf(sym ir.Value, mem VarID) VarID {
	if v, ok := g.addrRegs[sym]; ok {
		return v
	}
	v := g.Problem.AddVar("&"+sym.Ident(), Register, true)
	g.Problem.AddBase(v, mem)
	g.addrRegs[sym] = v
	g.VarOf[sym] = v
	return v
}

// operand resolves an instruction operand to a constraint variable.
// The second result is false for operands with no points-to relevance
// (scalar constants, null, undef, and pointer-incompatible registers).
func (g *genState) operand(v ir.Value) (VarID, bool) {
	switch v := v.(type) {
	case *ir.Global:
		return g.addrOf(v, g.MemOf[v]), true
	case *ir.Function:
		return g.addrOf(v, g.MemOf[v]), true
	case *ir.Param, *ir.Instr:
		id, ok := g.VarOf[v]
		return id, ok
	default:
		return NoVar, false
	}
}

// genFunction emits constraints for a function body. Pass 1 creates result
// variables (phis may reference later instructions); pass 2 emits the
// constraints.
func (g *genState) genFunction(f *ir.Function) {
	p := g.Problem
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.HasResult() || !ir.PointerCompatible(in.Type()) {
				continue
			}
			name := "@" + f.FName + ".%" + in.IName
			g.VarOf[in] = p.AddVar(name, Register, true)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			g.genInstr(f, in)
		}
	}
}

func (g *genState) genInstr(f *ir.Function, in *ir.Instr) {
	p := g.Problem
	res, hasRes := g.VarOf[in]
	switch in.Op {
	case ir.OpAlloca:
		mem := p.AddVar("@"+f.FName+".%"+in.IName+".mem", Memory,
			ir.PointerCompatible(in.Ty))
		g.MemOf[in] = mem
		p.AddBase(res, mem)

	case ir.OpLoad:
		ptr, ok := g.operand(in.Args[0])
		if !ok {
			// Loading through null/undef traps; no constraint.
			return
		}
		if hasRes {
			p.AddLoad(res, ptr)
		} else if p.PtrCompat[ptr] {
			// Scalar load: Ω ⊒ *ptr (pointer smuggling, Section III-C).
			p.SetFlag(ptr, FlagLoadScalar)
		}

	case ir.OpStore:
		ptr, ptrOK := g.operand(in.Args[1])
		if !ptrOK {
			return
		}
		val, valOK := g.operand(in.Args[0])
		switch {
		case valOK:
			p.AddStore(ptr, val)
		case ir.PointerCompatible(in.Args[0].Type()):
			// Storing null/undef pointers introduces no pointees.
		default:
			// Scalar store: *ptr ⊒ Ω (pointer smuggling).
			if p.PtrCompat[ptr] {
				p.SetFlag(ptr, FlagStoreScalar)
			}
		}

	case ir.OpGEP, ir.OpBitcast:
		src, ok := g.operand(in.Args[0])
		switch {
		case hasRes && ok:
			p.AddSimple(res, src)
		case hasRes && !ir.PointerCompatible(in.Args[0].Type()):
			// Reinterpreting a scalar as a pointer: unknown origin.
			p.SetFlag(res, FlagPointsExt)
		case !hasRes && ok:
			// Pointer reinterpreted as a scalar: pointees escape.
			p.SetFlag(src, FlagEscapedPointees)
		}

	case ir.OpPtrToInt:
		if src, ok := g.operand(in.Args[0]); ok {
			// Casting to an integer exposes every pointee: Ω ⊒ p.
			p.SetFlag(src, FlagEscapedPointees)
		}

	case ir.OpIntToPtr:
		// The result may target any externally accessible location: p ⊒ Ω.
		if hasRes {
			p.SetFlag(res, FlagPointsExt)
		}

	case ir.OpPhi, ir.OpSelect:
		if !hasRes {
			return
		}
		args := in.Args
		if in.Op == ir.OpSelect {
			args = in.Args[1:] // skip the condition
		}
		for _, a := range args {
			if src, ok := g.operand(a); ok {
				p.AddSimple(res, src)
			} else if !ir.PointerCompatible(a.Type()) {
				// Merging a scalar into a pointer value.
				p.SetFlag(res, FlagPointsExt)
			}
		}

	case ir.OpCall:
		g.genCall(f, in)

	case ir.OpRet:
		if len(in.Args) == 0 {
			return
		}
		ret, okRet := g.RetOf[f]
		src, okSrc := g.operand(in.Args[0])
		switch {
		case okRet && okSrc:
			p.AddSimple(ret, src)
		case !okRet && okSrc:
			// Returning a pointer from a function whose return type is
			// not pointer compatible (type punning through the return
			// value): the pointees escape.
			p.SetFlag(src, FlagEscapedPointees)
		case okRet && !okSrc && !ir.PointerCompatible(in.Args[0].Type()):
			p.SetFlag(ret, FlagPointsExt)
		}

	case ir.OpMemcpy:
		dst, dstOK := g.operand(in.Args[0])
		src, srcOK := g.operand(in.Args[1])
		if !dstOK || !srcOK {
			return
		}
		g.tmpCounter++
		tmp := p.AddVar("@"+f.FName+".$cpy"+strconv.Itoa(g.tmpCounter), Register, true)
		p.AddLoad(tmp, src)
		p.AddStore(dst, tmp)

	case ir.OpBin, ir.OpICmp:
		// Scalar computation. Pointer operands fed into arithmetic other
		// than gep expose their pointees (equivalent to ptrtoint).
		if in.Op == ir.OpBin {
			for _, a := range in.Args {
				if src, ok := g.operand(a); ok {
					p.SetFlag(src, FlagEscapedPointees)
				}
			}
			if hasRes {
				p.SetFlag(res, FlagPointsExt)
			}
		}

	case ir.OpBr, ir.OpCondBr, ir.OpUnreachable:
		// Control flow is invisible to a flow-insensitive analysis.
	}
}

// genCall emits constraints for a call instruction: inline summaries for
// direct calls to the special-cased library functions, and Call(t, r, a…)
// constraints otherwise (direct calls go through a dummy address register,
// Figure 6).
func (g *genState) genCall(f *ir.Function, in *ir.Instr) {
	p := g.Problem
	res, hasRes := g.VarOf[in]
	callee := in.Callee()
	if cf, ok := callee.(*ir.Function); ok && cf.IsDecl() {
		if sum, hasSum := g.summaries[cf.FName]; hasSum {
			g.genSummaryCall(f, in, res, hasRes, sum)
			return
		}
	}

	target, ok := g.operand(callee)
	if !ok {
		return // call through null/undef traps
	}
	ret := NoVar
	if hasRes {
		ret = res
	}
	args := make([]VarID, len(in.CallArgs()))
	for i, a := range in.CallArgs() {
		if av, ok := g.operand(a); ok {
			args[i] = av
		} else {
			args[i] = NoVar
		}
	}
	p.AddCall(target, ret, args)
}

// genSummaryCall expands a direct call to a summarized library function
// inline, with a distinct abstract heap location per allocation site
// (heap objects are "named after their allocation site", Section II-A).
func (g *genState) genSummaryCall(f *ir.Function, in *ir.Instr, res VarID, hasRes bool, sum Summary) {
	p := g.Problem
	actual := func(i int) (VarID, bool) {
		args := in.CallArgs()
		if i >= len(args) {
			return NoVar, false
		}
		return g.operand(args[i])
	}
	if hasRes {
		if sum.RetFreshHeap {
			site := p.AddVar("heap.@"+f.FName+".%"+in.IName, Memory, true)
			g.MemOf[in] = site
			p.AddBase(res, site)
		}
		if sum.RetUnknown {
			p.SetFlag(res, FlagPointsExt)
		}
		for _, i := range sum.RetAliasesArgs {
			if av, ok := actual(i); ok {
				p.AddSimple(res, av)
			}
		}
	}
	for _, c := range sum.Copies {
		dst, dstOK := actual(c[0])
		src, srcOK := actual(c[1])
		if dstOK && srcOK {
			g.tmpCounter++
			tmp := p.AddVar("@"+f.FName+".$cpy"+strconv.Itoa(g.tmpCounter), Register, true)
			p.AddLoad(tmp, src)
			p.AddStore(dst, tmp)
		}
	}
	for _, i := range sum.EscapeArgs {
		if av, ok := actual(i); ok {
			p.SetFlag(av, FlagEscapedPointees)
		}
	}
	for _, i := range sum.UnknownIntoArgs {
		if av, ok := actual(i); ok {
			p.SetFlag(av, FlagStoreScalar)
		}
	}
}
