package core

import "testing"

func TestWaveMatchesReference(t *testing.T) {
	problems := []*Problem{escapeHeavyProblem(25)}
	if fp, _ := buildFigure1(t); fp != nil {
		problems = append(problems, fp)
	}
	if fp, _ := buildFigure3(t); fp != nil {
		problems = append(problems, fp)
	}
	for seed := int64(400); seed < 410; seed++ {
		problems = append(problems, randomProblem(seed, 60, 150))
	}
	for pi, prob := range problems {
		want := ReferenceSolve(prob)
		for _, name := range []string{"IP+Wave", "EP+Wave", "IP+Wave+PIP", "IP+OVS+Wave"} {
			sol, err := Solve(prob, MustParseConfig(name), SolveOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sol.Canonical() != want {
				t.Fatalf("problem %d: %s diverged from reference", pi, name)
			}
			if sol.Stats.Passes == 0 {
				t.Fatalf("%s: no waves counted", name)
			}
		}
	}
}

func TestWaveValidation(t *testing.T) {
	for _, bad := range []string{"IP+Wave+OCD", "IP+Wave+LCD", "IP+Wave+DP", "IP+Wave+HCD"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("%s should be invalid", bad)
		}
	}
	cfg := MustParseConfig("IP+Wave+PIP")
	if cfg.Solver != Wave || !cfg.PIP {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.String() != "IP+Wave+PIP" {
		t.Fatalf("String = %q", cfg.String())
	}
}

func TestWaveCollapsesCycles(t *testing.T) {
	// Wave must unify the offline copy cycle in its first wave.
	p := NewProblem()
	loc := p.AddVar("loc", Memory, true)
	a := p.AddVar("a", Register, true)
	b := p.AddVar("b", Register, true)
	c := p.AddVar("c", Register, true)
	p.AddBase(a, loc)
	p.AddSimple(b, a)
	p.AddSimple(c, b)
	p.AddSimple(a, c)
	sol := MustSolve(p, MustParseConfig("IP+Wave"))
	if sol.Stats.Unifications == 0 {
		t.Fatal("wave did not collapse the cycle")
	}
	if sol.Canonical() != ReferenceSolve(p) {
		t.Fatal("wave changed the solution")
	}
}
