// Package core implements the paper's contribution: an Andersen-style,
// inclusion-based, flow/context/field-insensitive points-to analysis that is
// sound for incomplete C programs.
//
// The analysis runs in two phases. Phase 1 (gen.go) converts an MIR module
// into a Problem: sets of constraint variables (pointers P and abstract
// memory locations M, paper Section II-A) plus constraints in the language
// of Table I, extended with the six Ω-constraints of Table II represented as
// 1-bit flags. Phase 2 (solver.go et al.) solves the constraints under one
// of the many solver configurations of Table IV, producing a Solution.
package core

import "fmt"

// VarID identifies a constraint variable. The paper indexes constraint
// variables with 32-bit integers (Section V-B).
type VarID = uint32

// NoVar marks an absent variable (for example, a pointer-incompatible
// return value, which Func/Call constraints ignore).
const NoVar VarID = ^VarID(0)

// VarKind distinguishes virtual registers (drawn as circles in the paper's
// constraint graphs) from abstract memory locations (squares).
type VarKind uint8

const (
	// Register is an SSA virtual register; it can point but cannot be
	// pointed to.
	Register VarKind = iota
	// Memory is an abstract memory location: a named object, function, or
	// heap allocation site. It can be pointed to, and it is also a pointer
	// if its content type is pointer compatible.
	Memory
)

func (k VarKind) String() string {
	if k == Register {
		return "register"
	}
	return "memory"
}

// Flags encodes the six constraint types of the extended language
// (Table II) as 1-bit flags on constraint variables.
type Flags uint8

const (
	// FlagExternal is Ω ⊒ {x}: x is externally accessible (a member of E).
	FlagExternal Flags = 1 << iota
	// FlagPointsExt is x ⊒ Ω: x may target every externally accessible
	// memory location (x has unknown-origin pointees).
	FlagPointsExt
	// FlagEscapedPointees is Ω ⊒ x: every pointee of x is externally
	// accessible (x's value escapes).
	FlagEscapedPointees
	// FlagStoreScalar is *x ⊒ Ω: a scalar is stored through x
	// (pointer-smuggling store, Section III-C).
	FlagStoreScalar
	// FlagLoadScalar is Ω ⊒ *x: a scalar is loaded through x
	// (pointer-smuggling load, Section III-C).
	FlagLoadScalar
	// FlagImpFunc is ImpFunc(x): x is an imported external function.
	FlagImpFunc
)

func (f Flags) String() string {
	s := ""
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagExternal, "Ω⊒{x}")
	add(FlagPointsExt, "x⊒Ω")
	add(FlagEscapedPointees, "Ω⊒x")
	add(FlagStoreScalar, "*x⊒Ω")
	add(FlagLoadScalar, "Ω⊒*x")
	add(FlagImpFunc, "ImpFunc")
	if s == "" {
		s = "-"
	}
	return s
}

// Edge is a directed two-variable constraint. Its meaning depends on the
// list that holds it (Simple, Load, or Store).
type Edge struct {
	// Dst ⊇ Src for simple constraints; Dst ⊇ *Ptr for loads (Src is the
	// pointer); *Dst ⊇ Src for stores (Dst is the pointer).
	Dst, Src VarID
}

// FuncConstraint is Func(f, r, a1..an): variable F names a function object
// with pointer-compatible return variable Ret (or NoVar) and parameter
// variables Args (NoVar entries for pointer-incompatible parameters).
type FuncConstraint struct {
	F    VarID
	Ret  VarID
	Args []VarID
}

// CallConstraint is Call(t, r, a1..an): an indirect or direct call through
// pointer Target with result variable Ret (or NoVar) and argument variables
// Args (NoVar entries for pointer-incompatible arguments).
type CallConstraint struct {
	Target VarID
	Ret    VarID
	Args   []VarID
}

// Problem is the output of analysis phase 1: the variable universe
// V = P ∪ M and all constraints, ready to be solved under any
// configuration.
type Problem struct {
	// Names holds a diagnostic name per variable.
	Names []string
	// Kind distinguishes registers from memory locations.
	Kind []VarKind
	// PtrCompat marks the members of P: variables whose values may
	// contain pointers and therefore have points-to sets.
	PtrCompat []bool
	// Flags holds the initial Ω-constraints per variable.
	Flags []Flags

	// Base constraints p ⊇ {x} (placed directly into Sol_e when solving).
	Base []Edge // Dst ⊇ {Src}
	// Simple constraints p ⊇ q.
	Simple []Edge
	// Load constraints p ⊇ *q (Dst = p, Src = q).
	Load []Edge
	// Store constraints *p ⊇ q (Dst = p, Src = q).
	Store []Edge
	// Funcs and Calls model functions and call sites (Table I).
	Funcs []FuncConstraint
	Calls []CallConstraint

	// Order lists the live variables in generation order. It is nil when
	// every variable is live and IDs follow generation order, as in a
	// problem generated from scratch. A problem generated against an
	// earlier generation (GenerateWith with a previous problem) keeps
	// that generation's IDs, so it lists the order here and leaves
	// retired names out as dead variables (see renumber.go).
	Order []VarID
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// NumVars returns |V|.
func (p *Problem) NumVars() int { return len(p.Names) }

// NumConstraints returns |C|: base, simple, load, and store constraints plus
// function and call constraints and flag bits, matching the paper's
// Table III metric.
func (p *Problem) NumConstraints() int {
	n := len(p.Base) + len(p.Simple) + len(p.Load) + len(p.Store) + len(p.Funcs) + len(p.Calls)
	for _, f := range p.Flags {
		for b := Flags(1); b < 1<<6; b <<= 1 {
			if f&b != 0 {
				n++
			}
		}
	}
	return n
}

// AddVar appends a variable and returns its id.
func (p *Problem) AddVar(name string, kind VarKind, ptrCompat bool) VarID {
	id := VarID(len(p.Names))
	p.Names = append(p.Names, name)
	p.Kind = append(p.Kind, kind)
	p.PtrCompat = append(p.PtrCompat, ptrCompat)
	p.Flags = append(p.Flags, 0)
	return id
}

// SetFlag ors bit into the variable's initial flags.
func (p *Problem) SetFlag(v VarID, bit Flags) { p.Flags[v] |= bit }

// AddBase records p ⊇ {x}.
func (p *Problem) AddBase(dst, loc VarID) { p.Base = append(p.Base, Edge{dst, loc}) }

// AddSimple records dst ⊇ src, normalizing pointer-incompatible endpoints
// into pointer-integer conversions (paper Section V-B): dst ⊇ x with x ∉ P
// becomes dst ⊒ Ω, and x ⊇ src with x ∉ P becomes Ω ⊒ src.
func (p *Problem) AddSimple(dst, src VarID) {
	switch {
	case p.PtrCompat[dst] && p.PtrCompat[src]:
		p.Simple = append(p.Simple, Edge{dst, src})
	case p.PtrCompat[dst]:
		p.SetFlag(dst, FlagPointsExt)
	case p.PtrCompat[src]:
		p.SetFlag(src, FlagEscapedPointees)
	}
}

// AddLoad records dst ⊇ *ptr; a pointer-incompatible dst is a scalar load
// Ω ⊒ *ptr (pointer smuggling).
func (p *Problem) AddLoad(dst, ptr VarID) {
	if !p.PtrCompat[ptr] {
		// Loading through a non-pointer is loading through an integer
		// cast to a pointer: the result has unknown origin.
		if p.PtrCompat[dst] {
			p.SetFlag(dst, FlagPointsExt)
		}
		return
	}
	if !p.PtrCompat[dst] {
		p.SetFlag(ptr, FlagLoadScalar)
		return
	}
	p.Load = append(p.Load, Edge{dst, ptr})
}

// AddStore records *ptr ⊇ src; a pointer-incompatible src is a scalar store
// *ptr ⊒ Ω (pointer smuggling).
func (p *Problem) AddStore(ptr, src VarID) {
	if !p.PtrCompat[ptr] {
		// Storing through an integer cast to a pointer: the stored value
		// escapes to unknown memory.
		if p.PtrCompat[src] {
			p.SetFlag(src, FlagEscapedPointees)
		}
		return
	}
	if !p.PtrCompat[src] {
		p.SetFlag(ptr, FlagStoreScalar)
		return
	}
	p.Store = append(p.Store, Edge{ptr, src})
}

// AddFunc records Func(f, ret, args...).
func (p *Problem) AddFunc(f, ret VarID, args []VarID) {
	p.Funcs = append(p.Funcs, FuncConstraint{F: f, Ret: ret, Args: args})
}

// AddCall records Call(target, ret, args...).
func (p *Problem) AddCall(target, ret VarID, args []VarID) {
	p.Calls = append(p.Calls, CallConstraint{Target: target, Ret: ret, Args: args})
}

// Validate checks internal consistency of the problem.
func (p *Problem) Validate() error {
	n := VarID(p.NumVars())
	chk := func(v VarID, what string) error {
		if v != NoVar && v >= n {
			return fmt.Errorf("%s references variable %d of %d", what, v, n)
		}
		return nil
	}
	for _, e := range p.Base {
		if err := chk(e.Dst, "base"); err != nil {
			return err
		}
		if err := chk(e.Src, "base"); err != nil {
			return err
		}
		if p.Kind[e.Src] != Memory {
			return fmt.Errorf("base constraint targets register %s", p.Names[e.Src])
		}
	}
	for _, lst := range [][]Edge{p.Simple, p.Load, p.Store} {
		for _, e := range lst {
			if err := chk(e.Dst, "edge"); err != nil {
				return err
			}
			if err := chk(e.Src, "edge"); err != nil {
				return err
			}
		}
	}
	for _, f := range p.Funcs {
		if err := chk(f.F, "func"); err != nil {
			return err
		}
		if err := chk(f.Ret, "func ret"); err != nil {
			return err
		}
		for _, a := range f.Args {
			if err := chk(a, "func arg"); err != nil {
				return err
			}
		}
	}
	for _, c := range p.Calls {
		if err := chk(c.Target, "call"); err != nil {
			return err
		}
		if err := chk(c.Ret, "call ret"); err != nil {
			return err
		}
		for _, a := range c.Args {
			if err := chk(a, "call arg"); err != nil {
				return err
			}
		}
	}
	for _, v := range p.Order {
		if v >= n {
			return fmt.Errorf("order references variable %d of %d", v, n)
		}
	}
	return nil
}

// Clone returns a deep copy of the problem: mutating the clone's tables or
// constraint lists never aliases the original. The incremental layer clones
// before applying edit scripts and before persisting a problem alongside
// its checkpoint.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Names:     append([]string(nil), p.Names...),
		Kind:      append([]VarKind(nil), p.Kind...),
		PtrCompat: append([]bool(nil), p.PtrCompat...),
		Flags:     append([]Flags(nil), p.Flags...),
		Base:      append([]Edge(nil), p.Base...),
		Simple:    append([]Edge(nil), p.Simple...),
		Load:      append([]Edge(nil), p.Load...),
		Store:     append([]Edge(nil), p.Store...),
		Funcs:     make([]FuncConstraint, len(p.Funcs)),
		Calls:     make([]CallConstraint, len(p.Calls)),
		Order:     append([]VarID(nil), p.Order...),
	}
	for i, f := range p.Funcs {
		f.Args = append([]VarID(nil), f.Args...)
		q.Funcs[i] = f
	}
	for i, c := range p.Calls {
		c.Args = append([]VarID(nil), c.Args...)
		q.Calls[i] = c
	}
	return q
}
