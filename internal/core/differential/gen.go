// Package differential is the solver's correctness gate. It sweeps
// generator-driven constraint problems across the solver configuration
// space and a set of firing caps, checking every solution against
// core.ReferenceSolve (an independent fixed point that shares no code with
// the solver), every budget abort against the Ω-degraded solution, and
// every cell for repeatability (identical Solution.Fingerprint and
// Degraded outcome across two solves).
//
// The package also holds the edit-script gate for incremental re-solving
// (editscript.go).
package differential

import (
	"math/rand"

	"github.com/pip-analysis/pip/internal/core"
)

// GenOptions shapes a generated problem.
type GenOptions struct {
	// Vars is the variable count; Generate enforces a floor of 96.
	Vars int
	// Density multiplies the constraint counts (1.0 = one simple edge and
	// one base fact per variable, plus a smaller complement of loads,
	// stores, calls and flags).
	Density float64
	// Cyclic adds long simple-edge cycles (including self-loops) so SCC
	// condensation and online cycle detection both have work to do.
	Cyclic bool
}

// DefaultGen is the sweep's standard shape: a problem dense enough to
// fire every inference rule, and cyclic.
func DefaultGen() GenOptions { return GenOptions{Vars: 128, Density: 1.0, Cyclic: true} }

// Generate builds a deterministic pseudo-random constraint problem. The
// same seed and options always produce the identical problem, so every
// sweep failure is replayable from its seed alone.
func Generate(seed int64, opt GenOptions) *core.Problem {
	if opt.Vars < 96 {
		opt.Vars = 96
	}
	if opt.Density <= 0 {
		opt.Density = 1.0
	}
	rng := rand.New(rand.NewSource(seed))
	p := core.NewProblem()

	n := opt.Vars
	vars := make([]core.VarID, n)
	var mems []core.VarID
	for i := 0; i < n; i++ {
		kind := core.Register
		if rng.Intn(5) < 2 { // 40% memory locations
			kind = core.Memory
		}
		ptrCompat := rng.Intn(10) != 0 // 10% scalars exercise smuggling rules
		vars[i] = p.AddVar("", kind, ptrCompat)
		if kind == core.Memory {
			mems = append(mems, vars[i])
		}
	}
	if len(mems) == 0 {
		mems = append(mems, p.AddVar("", core.Memory, true))
		vars = append(vars, mems[0])
	}
	anyVar := func() core.VarID { return vars[rng.Intn(len(vars))] }
	anyMem := func() core.VarID { return mems[rng.Intn(len(mems))] }

	scale := func(base int) int {
		c := int(float64(base) * opt.Density)
		if c < 1 {
			c = 1
		}
		return c
	}

	for i := 0; i < scale(n); i++ {
		p.AddBase(anyVar(), anyMem())
	}
	for i := 0; i < scale(n); i++ {
		p.AddSimple(anyVar(), anyVar())
	}
	for i := 0; i < scale(n/3); i++ {
		p.AddLoad(anyVar(), anyVar())
	}
	for i := 0; i < scale(n/3); i++ {
		p.AddStore(anyVar(), anyVar())
	}
	// A handful of functions and calls so the Func/Call rules run too.
	for i := 0; i < scale(n/12); i++ {
		f := anyMem()
		args := []core.VarID{anyVar(), anyVar()}
		p.AddFunc(f, anyVar(), args)
		tgt := anyVar()
		p.AddBase(tgt, f)
		p.AddCall(tgt, anyVar(), []core.VarID{anyVar(), anyVar()})
	}
	// Seed the Ω machinery: external roots, escape sources, and the
	// smuggling flags, so PIP's non-monotone rules 1-4 all fire.
	for i := 0; i < scale(n/8); i++ {
		p.SetFlag(anyMem(), core.FlagExternal)
	}
	for _, fl := range []core.Flags{
		core.FlagPointsExt, core.FlagEscapedPointees,
		core.FlagStoreScalar, core.FlagLoadScalar,
	} {
		for i := 0; i < scale(n/16); i++ {
			p.SetFlag(anyVar(), fl)
		}
	}

	if opt.Cyclic {
		// Two long simple-edge cycles threaded through random variables,
		// plus explicit self-loops: both collapse paths (offline SCC and
		// online OCD/HCD/LCD) get exercised.
		for c := 0; c < 2; c++ {
			ring := make([]core.VarID, 0, n/8)
			for i := 0; i < n/8; i++ {
				ring = append(ring, anyVar())
			}
			for i := range ring {
				p.AddSimple(ring[(i+1)%len(ring)], ring[i])
			}
		}
		for i := 0; i < 3; i++ {
			v := anyVar()
			p.AddSimple(v, v)
		}
	}
	return p
}
