package core

import "testing"

// TestArenaReuseGrowing solves a small problem and then a larger one on
// one Arena, the way an engine worker reuses its arena across jobs. The
// sizes are the ones that once panicked: an arena first sized for 865
// variables holds a union-find whose rank capacity (896) is below its
// parent capacity, and the 897-variable solve must grow both. Each solve
// must match a solve on a fresh arena.
func TestArenaReuseGrowing(t *testing.T) {
	cfg := Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true}
	ar := NewArena()
	for _, n := range []int{865, 897} {
		p := genCheckpointProblem(int64(n), n)
		if p.NumVars() != n {
			t.Fatalf("generated %d variables, want %d", p.NumVars(), n)
		}
		got, err := Solve(p, cfg, SolveOptions{Arena: ar})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := Solve(p, cfg, SolveOptions{Arena: NewArena()})
		if err != nil {
			t.Fatalf("n=%d: fresh arena: %v", n, err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("n=%d: reused arena diverged from a fresh one", n)
		}
	}
}
