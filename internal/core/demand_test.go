package core

import (
	"math/rand"
	"testing"
)

// demandConfigs is a small cross-section including unification and PIP
// cells (demand supports every configuration, unlike resume).
func demandConfigs() []Config {
	return []Config{
		{Rep: EP, Solver: Naive},
		{Rep: IP, Solver: Worklist, Order: FIFO},
		{Rep: EP, Solver: Worklist, Order: LIFO, LCD: true},
		{Rep: IP, Solver: Worklist, Order: LRF, OVS: true, DP: true},
		{Rep: EP, Solver: Wave},
		{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true},
		{Rep: IP, Solver: Worklist, Order: LIFO, HCD: true, PIP: true},
	}
}

// assertDemandMatches checks the demand contract against a full reference
// solution: exact equality on explored variables, exactly Ω on unexplored
// ones.
func assertDemandMatches(t *testing.T, sol *Solution, ref *Solution, label string) {
	t.Helper()
	n := ref.NumVars()
	for v := VarID(0); int(v) < n; v++ {
		if sol.Explored(v) {
			if got, want := sol.PointsToExternal(v), ref.PointsToExternal(v); got != want {
				t.Fatalf("%s: var %d explored: PointsToExternal=%v want %v", label, v, got, want)
			}
			if got, want := sol.Escaped(v), ref.Escaped(v); got != want {
				t.Fatalf("%s: var %d explored: Escaped=%v want %v", label, v, got, want)
			}
			got, want := sol.Explicit(v), ref.Explicit(v)
			if len(got) != len(want) {
				t.Fatalf("%s: var %d explored: explicit %v want %v", label, v, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: var %d explored: explicit %v want %v", label, v, got, want)
				}
			}
		} else {
			if !sol.Escaped(v) {
				t.Fatalf("%s: var %d unexplored but not escaped", label, v)
			}
			if ref.Problem().PtrCompat[v] && !sol.PointsToExternal(v) {
				t.Fatalf("%s: var %d unexplored but not pointing externally", label, v)
			}
			if ex := sol.Explicit(v); len(ex) != 0 {
				t.Fatalf("%s: var %d unexplored with explicit pointees %v", label, v, ex)
			}
		}
	}
}

// TestDemandMatchesExhaustive asserts the demand solve equals the full
// solution on explored variables and is exactly Ω on unexplored ones.
func TestDemandMatchesExhaustive(t *testing.T) {
	for _, cfg := range demandConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				p := genCheckpointProblem(seed, 72)
				ref := MustSolve(p, cfg)
				rng := rand.New(rand.NewSource(seed * 1013))
				for trial := 0; trial < 4; trial++ {
					roots := []VarID{VarID(rng.Intn(p.NumVars()))}
					if trial == 3 {
						roots = append(roots, VarID(rng.Intn(p.NumVars())))
					}
					sol, err := Solve(p, cfg, SolveOptions{Demand: roots})
					if err != nil {
						t.Fatalf("seed %d: demand: %v", seed, err)
					}
					for _, r := range roots {
						if !sol.Explored(r) {
							t.Fatalf("seed %d: root %d not explored", seed, r)
						}
					}
					if st := sol.Demand(); st.ExploredVars > st.TotalVars ||
						st.ExploredConstraints > st.TotalConstraints {
						t.Fatalf("seed %d: inconsistent stats %+v", seed, st)
					}
					assertDemandMatches(t, sol, ref, cfg.String())
				}
			}
		})
	}
}

// TestDemandUnreferencedRootAndEmpty covers the degenerate slices: a root
// with no constraints explores only itself; no roots explores nothing and
// every answer is Ω.
func TestDemandUnreferencedRoot(t *testing.T) {
	p := NewProblem()
	a := p.AddVar("a", Register, true)
	m := p.AddVar("m", Memory, true)
	lone := p.AddVar("lone", Register, true)
	p.AddBase(a, m)
	cfg := Config{Rep: IP, Solver: Worklist}
	sol, err := Solve(p, cfg, SolveOptions{Demand: []VarID{lone}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Explored(lone) || sol.Explored(a) || sol.Explored(m) {
		t.Fatalf("unexpected exploration mask %v", sol.explored)
	}
	if sol.PointsToExternal(lone) || sol.Escaped(lone) {
		t.Fatal("constraint-free root should have the exact empty answer")
	}
	if !sol.Escaped(a) || !sol.PointsToExternal(a) {
		t.Fatal("unexplored variable should answer Ω")
	}

	// An empty root list selects an exhaustive Solve, so the rootless
	// slice is reachable only through the demand path itself.
	none, err := solveDemand(p, cfg, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := VarID(0); int(v) < p.NumVars(); v++ {
		if none.Explored(v) {
			t.Fatalf("no-root demand explored %d", v)
		}
	}

	if _, err := Solve(p, cfg, SolveOptions{Demand: []VarID{VarID(99)}}); err == nil {
		t.Fatal("out-of-range root should error")
	}
}

// TestDemandDegradedIsSound exhausts the budget inside a demand solve and
// asserts the degraded answer is ⊒ the exact reference everywhere.
func TestDemandDegradedIsSound(t *testing.T) {
	p := genCheckpointProblem(3, 96)
	cfg := Config{Rep: IP, Solver: Worklist, Budget: Budget{Firings: 5}}
	sol, err := Solve(p, cfg, SolveOptions{Demand: []VarID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded {
		t.Skip("budget did not exhaust at this scale")
	}
	for v := VarID(0); int(v) < p.NumVars(); v++ {
		if !sol.Escaped(v) {
			t.Fatalf("degraded demand: var %d not escaped", v)
		}
		if p.PtrCompat[v] && !sol.PointsToExternal(v) {
			t.Fatalf("degraded demand: var %d not pointing externally", v)
		}
	}
}
