package core

import (
	"testing"
)

// decodeFuzzProblem turns fuzz bytes into a small constraint problem and
// a firing cap (0 = unbudgeted). The decoder is total over inputs of at
// least five bytes: every byte string is a valid problem, so the fuzzer
// spends its time exploring graph shapes rather than fighting a parser.
func decodeFuzzProblem(data []byte) (*Problem, int64) {
	if len(data) < 5 {
		return nil, 0
	}
	n := 8 + int(data[0])%24
	fcap := int64(data[1])
	p := NewProblem()
	vars := make([]VarID, n)
	for i := 0; i < n; i++ {
		kind := Memory
		if i%3 == 2 {
			kind = Register
		}
		vars[i] = p.AddVar("", kind, i%11 != 10)
	}
	// mem rounds an index down to a Memory variable (kinds repeat
	// Memory, Memory, Register).
	mem := func(b byte) VarID {
		i := int(b) % n
		return vars[i-i%3]
	}
	flags := []Flags{FlagPointsExt, FlagEscapedPointees, FlagStoreScalar, FlagLoadScalar}
	for body := data[2:]; len(body) >= 3; body = body[3:] {
		op, a, b := body[0], body[1], body[2]
		x, y := vars[int(a)%n], vars[int(b)%n]
		switch op % 8 {
		case 0:
			p.AddSimple(x, y)
		case 1:
			p.AddBase(x, mem(b))
		case 2:
			p.AddLoad(x, y)
		case 3:
			p.AddStore(x, y)
		case 4:
			p.SetFlag(mem(a), FlagExternal)
		case 5:
			p.SetFlag(x, flags[int(b)%len(flags)])
		case 6:
			p.AddFunc(mem(a), y, []VarID{x})
			p.AddCall(y, x, []VarID{vars[int(a+b)%n]})
		default:
			p.AddSimple(x, x) // explicit self-loop op
		}
	}
	if p.Validate() != nil {
		return nil, 0
	}
	return p, fcap
}

// fuzzSeeds are hand-built corpus entries covering shapes the cycle
// handling must not get wrong: pure chains, self-loop farms, a large
// cycle under a budget small enough to abort mid-collapse, and two rings
// joined by a chain.
func fuzzSeeds() [][]byte {
	// Chain: 16 vars, unbudgeted, edges i+1 ⊇ i plus a few base facts.
	chain := []byte{8, 0}
	for i := 0; i < 15; i++ {
		chain = append(chain, 0, byte(i+1), byte(i))
	}
	for i := 0; i < 4; i++ {
		chain = append(chain, 1, byte(i), byte(3*i))
	}

	// Self-loops: every op-7 edge is v ⊇ v; mix in loads through them.
	loops := []byte{4, 0}
	for i := 0; i < 12; i++ {
		loops = append(loops, 7, byte(i), byte(i))
	}
	for i := 0; i < 6; i++ {
		loops = append(loops, 1, byte(i), byte(i), 2, byte(i+1), byte(i))
	}

	// Cycle under budget: a 20-node ring with bases, capped at 37
	// firings so the solve degrades somewhere inside the collapse.
	ring := []byte{16, 37}
	for i := 0; i < 20; i++ {
		ring = append(ring, 0, byte((i+1)%20), byte(i))
	}
	for i := 0; i < 8; i++ {
		ring = append(ring, 1, byte(i), byte(3*i), 3, byte(i), byte(i+5))
	}

	// Two rings joined by a chain, unbudgeted.
	twin := []byte{10, 0}
	for i := 0; i < 6; i++ {
		twin = append(twin, 0, byte((i+1)%6), byte(i))
		twin = append(twin, 0, byte(8+(i+1)%6), byte(8+i))
	}
	twin = append(twin, 0, 8, 5, 1, 0, 0, 4, 9, 0)

	return [][]byte{chain, loops, ring, twin}
}

// FuzzSolveReference checks the solver against ReferenceSolve, the
// independent map-based fixed point, on arbitrary problems for a few
// representative configurations under the decoded firing cap:
//
//   - unbudgeted, the solution's Canonical equals ReferenceSolve;
//   - capped, the solve is either exact or the Ω-degraded solution;
//   - two solves of the same cell agree on Fingerprint and Degraded.
//
// Run continuously with `make fuzz`.
func FuzzSolveReference(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	cfgs := []string{"IP+WL(FIFO)+PIP", "EP+OVS+WL(LRF)+OCD", "IP+WL(LIFO)+LCD+DP"}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, fcap := decodeFuzzProblem(data)
		if p == nil {
			return
		}
		want := ReferenceSolve(p)
		degraded := DegradedSolution(p).Canonical()
		for _, cs := range cfgs {
			cfg := MustParseConfig(cs)
			cfg.Budget = Budget{Firings: fcap}
			sol := MustSolve(p, cfg)
			again := MustSolve(p, cfg)
			if again.Degraded != sol.Degraded || again.Fingerprint() != sol.Fingerprint() {
				t.Fatalf("%s cap=%d: repeated solve diverged", cs, fcap)
			}
			got := sol.Canonical()
			switch {
			case sol.Degraded && fcap == 0:
				t.Fatalf("%s: unbudgeted solve degraded", cs)
			case sol.Degraded && got != degraded:
				t.Fatalf("%s cap=%d: degraded solve is not the Ω-degraded solution", cs, fcap)
			case !sol.Degraded && got != want:
				t.Fatalf("%s cap=%d: solution disagrees with ReferenceSolve", cs, fcap)
			}
		}
	})
}
