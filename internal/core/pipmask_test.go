package core

import "testing"

// PIP rule-mask tests: every subset of the four PIP additions must be
// solution-preserving, and the full mask must equal plain PIP.

func TestPIPMaskAllSubsetsExact(t *testing.T) {
	problems := []*Problem{escapeHeavyProblem(20)}
	for seed := int64(50); seed < 56; seed++ {
		problems = append(problems, randomProblem(seed, 40, 90))
	}
	for pi, prob := range problems {
		want := ReferenceSolve(prob)
		for mask := uint8(0); mask <= 0xF; mask++ {
			cfg := Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true, PIPMask: mask}
			sol, err := Solve(prob, cfg, SolveOptions{})
			if err != nil {
				t.Fatalf("mask %04b: %v", mask, err)
			}
			if sol.Canonical() != want {
				t.Fatalf("problem %d: PIP mask %04b changed the solution", pi, mask)
			}
		}
	}
}

func TestPIPMaskStringRoundTrip(t *testing.T) {
	cfg := Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true, PIPMask: 0b0101}
	s := cfg.String()
	if s != "IP+WL(FIFO)+PIP[1,3]" {
		t.Fatalf("String = %q", s)
	}
	parsed, err := ParseConfig(s)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != cfg {
		t.Fatalf("round trip: %+v vs %+v", parsed, cfg)
	}
	// The full mask behaves like mask 0 but is a distinct Config value, so
	// it renders its explicit rule list: normalizing it to plain "PIP"
	// would parse back to mask 0 and break ParseConfig(c.String()) == c.
	full := Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true, PIPMask: 0xF}
	if full.String() != "IP+WL(FIFO)+PIP[1,2,3,4]" {
		t.Fatalf("full mask String = %q", full.String())
	}
	reparsed, err := ParseConfig(full.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed != full {
		t.Fatalf("full-mask round trip: %+v vs %+v", reparsed, full)
	}
	if _, err := ParseConfig("IP+WL(FIFO)+PIP[9]"); err == nil {
		t.Fatal("bad rule accepted")
	}
}

func TestPIPMaskValidation(t *testing.T) {
	bad := Config{Rep: IP, Solver: Worklist, PIPMask: 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("PIPMask without PIP accepted")
	}
	bad2 := Config{Rep: IP, Solver: Worklist, PIP: true, PIPMask: 0x1F}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range PIPMask accepted")
	}
}

// TestPIPRule2DrivesPointeeReduction: on escape-heavy input, rule 2
// (clearing doubled-up sets) is the main source of the explicit-pointee
// reduction.
func TestPIPRule2DrivesPointeeReduction(t *testing.T) {
	prob := escapeHeavyProblem(40)
	noPip := MustSolve(prob, MustParseConfig("IP+WL(FIFO)"))
	rule2 := MustSolve(prob, Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true, PIPMask: 0b0010})
	all := MustSolve(prob, MustParseConfig("IP+WL(FIFO)+PIP"))
	if rule2.Stats.ExplicitPointees >= noPip.Stats.ExplicitPointees {
		t.Fatalf("rule 2 alone should reduce pointees: %d vs %d",
			rule2.Stats.ExplicitPointees, noPip.Stats.ExplicitPointees)
	}
	if all.Stats.ExplicitPointees > rule2.Stats.ExplicitPointees {
		t.Fatalf("full PIP should not exceed rule 2 alone: %d vs %d",
			all.Stats.ExplicitPointees, rule2.Stats.ExplicitPointees)
	}
}

// TestPIPInvariantEmptySolWhenDoubledUp checks the paper's Section IV
// property: under PIP, any node marked both x ⊒ Ω and Ω ⊒ x has an empty
// explicit solution set at the fixed point.
func TestPIPInvariantEmptySolWhenDoubledUp(t *testing.T) {
	problems := []*Problem{escapeHeavyProblem(30)}
	for seed := int64(600); seed < 610; seed++ {
		problems = append(problems, randomProblem(seed, 50, 120))
	}
	for pi, prob := range problems {
		sol := MustSolve(prob, MustParseConfig("IP+WL(FIFO)+PIP"))
		for v := VarID(0); v < VarID(prob.NumVars()); v++ {
			if !prob.PtrCompat[v] {
				continue
			}
			if sol.PointsToExternal(v) && sol.pointsExt[sol.rep(v)] {
				// Need both flags: x ⊒ Ω is pointsExt; Ω ⊒ x is the
				// escaped-pointees flag, which MarkExternallyAccessible
				// sets together with External on x itself. Use Escaped
				// as the observable proxy for doubled-up nodes.
				if sol.Escaped(v) && len(sol.Explicit(v)) != 0 {
					t.Fatalf("problem %d: externally accessible %d keeps %d explicit pointees under PIP",
						pi, v, len(sol.Explicit(v)))
				}
			}
		}
	}
}
