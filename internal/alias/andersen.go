package alias

import (
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/ir"
)

// Andersen answers alias queries from a solved points-to problem: two
// accesses may alias only if their pointers' Sol sets intersect (including
// the implicit external part, Section III-D).
type Andersen struct {
	gen *core.Gen
	sol *core.Solution
}

// NewAndersen wraps a generation result and its solution.
func NewAndersen(gen *core.Gen, sol *core.Solution) *Andersen {
	return &Andersen{gen: gen, sol: sol}
}

// AnalyzeModule runs both analysis phases with the given configuration and
// returns the Andersen alias client.
func AnalyzeModule(m *ir.Module, cfg core.Config) (*Andersen, error) {
	gen := core.Generate(m)
	sol, err := core.Solve(gen.Problem, cfg, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	return NewAndersen(gen, sol), nil
}

// pointees classifies a pointer value: a singleton identified object
// (symbol addresses, possibly through casts/geps) or a constraint variable.
func (a *Andersen) pointerVar(v ir.Value) (core.VarID, bool) {
	// Strip offset-only derivations: field-insensitive sets are identical.
	for {
		in, ok := v.(*ir.Instr)
		if !ok || (in.Op != ir.OpGEP && in.Op != ir.OpBitcast) {
			break
		}
		if !ir.PointerCompatible(in.Args[0].Type()) {
			break
		}
		v = in.Args[0]
	}
	switch val := v.(type) {
	case *ir.Global:
		if id, ok := a.gen.VarOf[val]; ok {
			return id, true
		}
		return core.NoVar, false
	case *ir.Function:
		if id, ok := a.gen.VarOf[val]; ok {
			return id, true
		}
		return core.NoVar, false
	default:
		id, ok := a.gen.VarOf[v]
		return id, ok
	}
}

// symbolTarget reports the memory location a symbol address points to.
func (a *Andersen) symbolTarget(v ir.Value) (core.VarID, bool) {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || (in.Op != ir.OpGEP && in.Op != ir.OpBitcast) {
			break
		}
		v = in.Args[0]
	}
	switch val := v.(type) {
	case *ir.Global:
		id, ok := a.gen.MemOf[val]
		return id, ok
	case *ir.Function:
		id, ok := a.gen.MemOf[val]
		return id, ok
	case *ir.Instr:
		if val.Op == ir.OpAlloca {
			id, ok := a.gen.MemOf[val]
			return id, ok
		}
	}
	return core.NoVar, false
}

// Alias implements Analysis. Sizes are ignored: the analysis is
// field-insensitive, so overlap within an object cannot be refuted.
func (a *Andersen) Alias(p ir.Value, _ int64, q ir.Value, _ int64) Result {
	if p == q {
		return MustAlias
	}
	pSym, pIsSym := a.symbolTarget(p)
	qSym, qIsSym := a.symbolTarget(q)
	// Both are direct object addresses: they alias iff same object.
	if pIsSym && qIsSym {
		if pSym == qSym {
			return MayAlias // same object, unknown offsets
		}
		return NoAlias
	}
	// One side is a direct address: check membership in the other's set.
	if pIsSym {
		return a.symbolVsVar(pSym, q)
	}
	if qIsSym {
		return a.symbolVsVar(qSym, p)
	}
	pv, okP := a.pointerVar(p)
	qv, okQ := a.pointerVar(q)
	if !okP || !okQ {
		// A pointer the generator did not model (e.g. null): cannot
		// refute.
		return MayAlias
	}
	if a.sol.MayShareTargets(pv, qv) {
		return MayAlias
	}
	return NoAlias
}

// symbolVsVar answers a query between the address of object sym and a
// pointer variable value.
func (a *Andersen) symbolVsVar(sym core.VarID, q ir.Value) Result {
	qv, ok := a.pointerVar(q)
	if !ok {
		return MayAlias
	}
	for _, x := range a.sol.PointsTo(qv) {
		if x == sym {
			return MayAlias
		}
		if x == core.OmegaPointee && a.sol.Escaped(sym) {
			return MayAlias
		}
	}
	return NoAlias
}
