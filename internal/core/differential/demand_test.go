package differential

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
)

// checkDemand is the demand-vs-exhaustive oracle, shared with the
// FuzzDemandSlice target: explored variables must answer exactly like the
// full reference solution, unexplored ones exactly Ω (escaped, pointing
// externally when pointer-compatible, no explicit pointees).
func checkDemand(p *core.Problem, sol *core.Solution, ref *core.Solution) error {
	for v := core.VarID(0); int(v) < p.NumVars(); v++ {
		if sol.Explored(v) {
			if got, want := sol.PointsToExternal(v), ref.PointsToExternal(v); got != want {
				return fmt.Errorf("var %d explored: PointsToExternal=%v want %v", v, got, want)
			}
			if got, want := sol.Escaped(v), ref.Escaped(v); got != want {
				return fmt.Errorf("var %d explored: Escaped=%v want %v", v, got, want)
			}
			got, want := sol.Explicit(v), ref.Explicit(v)
			if len(got) != len(want) {
				return fmt.Errorf("var %d explored: explicit %v want %v", v, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("var %d explored: explicit %v want %v", v, got, want)
				}
			}
			continue
		}
		if !sol.Escaped(v) {
			return fmt.Errorf("var %d unexplored but not escaped", v)
		}
		if p.PtrCompat[v] && !sol.PointsToExternal(v) {
			return fmt.Errorf("var %d unexplored but not pointing externally", v)
		}
		if ex := sol.Explicit(v); len(ex) != 0 {
			return fmt.Errorf("var %d unexplored with explicit pointees %v", v, ex)
		}
	}
	return nil
}

// TestDemandOracleRepresentative runs the demand-vs-exhaustive oracle
// across the full representative configuration set (the same 12 cells the
// parallel differential gate sweeps — demand, unlike resume, supports
// every configuration) on generator-driven problems.
func TestDemandOracleRepresentative(t *testing.T) {
	for _, cfg := range RepresentativeConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				p := Generate(seed, DefaultGen())
				ref := core.MustSolve(p, cfg)
				rng := rand.New(rand.NewSource(seed * 6151))
				for trial := 0; trial < 3; trial++ {
					roots := []core.VarID{core.VarID(rng.Intn(p.NumVars()))}
					if trial == 2 {
						roots = append(roots, core.VarID(rng.Intn(p.NumVars())))
					}
					sol, err := core.Solve(p, cfg, core.SolveOptions{Demand: roots})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					for _, r := range roots {
						if !sol.Explored(r) {
							t.Fatalf("seed %d: root %d not explored", seed, r)
						}
					}
					if err := checkDemand(p, sol, ref); err != nil {
						t.Fatalf("seed %d roots %v: %v", seed, roots, err)
					}
				}
			}
		})
	}
}

// TestDemandBudgetExhaustion exhausts firing budgets inside demand solves
// across several representative cells and asserts the degraded answer is
// ⊒ the exact reference everywhere: every escaped-in-reference variable
// stays escaped, every explicit reference pointee survives (possibly
// absorbed into Ω), and nothing the exact solution rules out is ruled in
// as explicit-only.
func TestDemandBudgetExhaustion(t *testing.T) {
	configs := []core.Config{
		{Rep: core.EP, Solver: core.Naive},
		{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO},
		{Rep: core.IP, Solver: core.Worklist, Order: core.LRF2, HCD: true, DP: true},
		{Rep: core.IP, OVS: true, Solver: core.Worklist, Order: core.LRF, OCD: true, DP: true, PIP: true},
	}
	p := Generate(3, DefaultGen())
	for _, cfg := range configs {
		ref := core.MustSolve(p, cfg)
		cfg.Budget = core.Budget{Firings: 7}
		sol, err := core.Solve(p, cfg, core.SolveOptions{Demand: []core.VarID{0, 1}})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !sol.Degraded {
			t.Fatalf("%s: firing cap 7 did not degrade a default-shape problem", cfg)
		}
		for v := core.VarID(0); int(v) < p.NumVars(); v++ {
			if ref.Escaped(v) && !sol.Escaped(v) {
				t.Fatalf("%s: degraded demand dropped escape of var %d", cfg, v)
			}
			if ref.PointsToExternal(v) && !sol.PointsToExternal(v) {
				t.Fatalf("%s: degraded demand dropped external pointee of var %d", cfg, v)
			}
			if sol.Escaped(v) {
				continue // Ω answer covers any explicit set
			}
			got := map[core.VarID]bool{}
			for _, x := range sol.Explicit(v) {
				got[x] = true
			}
			for _, x := range ref.Explicit(v) {
				if !got[x] {
					t.Fatalf("%s: degraded demand dropped pointee %d of var %d", cfg, x, v)
				}
			}
		}
	}
}
