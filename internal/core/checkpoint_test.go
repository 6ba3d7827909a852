package core

import (
	"errors"
	"math/rand"
	"testing"
)

// solveCheckpointed is a from-scratch Solve that also returns the
// checkpoint it captured.
func solveCheckpointed(p *Problem, cfg Config) (*Solution, *Checkpoint, error) {
	var ck *Checkpoint
	sol, err := Solve(p, cfg, SolveOptions{Checkpoint: &ck})
	return sol, ck, err
}

// resumeAdded is ck.ResumeAdded returning the next generation's
// checkpoint alongside the solution.
func resumeAdded(ck *Checkpoint, p *Problem, d *SummaryDelta) (*Solution, *Checkpoint, error) {
	var next *Checkpoint
	sol, err := ck.ResumeAdded(p, d, SolveOptions{Checkpoint: &next})
	return sol, next, err
}

// resumableConfigs are the configuration cells the checkpoint tests sweep:
// every Resumable combination axis that matters (representation ×
// solver × order × difference propagation).
func resumableConfigs() []Config {
	return []Config{
		{Rep: EP, Solver: Naive},
		{Rep: IP, Solver: Naive},
		{Rep: EP, Solver: Worklist, Order: FIFO},
		{Rep: IP, Solver: Worklist, Order: LIFO},
		{Rep: IP, Solver: Worklist, Order: LRF, DP: true},
		{Rep: EP, Solver: Worklist, Order: Topo, DP: true},
	}
}

// genCheckpointProblem builds a deterministic random problem with every
// constraint kind and flag represented.
func genCheckpointProblem(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	vars := make([]VarID, n)
	var mems []VarID
	for i := 0; i < n; i++ {
		kind := Register
		if rng.Intn(3) == 0 {
			kind = Memory
		}
		vars[i] = p.AddVar("", kind, rng.Intn(8) != 0)
		if kind == Memory {
			mems = append(mems, vars[i])
		}
	}
	if len(mems) == 0 {
		m := p.AddVar("", Memory, true)
		mems = append(mems, m)
		vars = append(vars, m)
	}
	anyVar := func() VarID { return vars[rng.Intn(len(vars))] }
	anyMem := func() VarID { return mems[rng.Intn(len(mems))] }
	for i := 0; i < n; i++ {
		p.AddBase(anyVar(), anyMem())
		p.AddSimple(anyVar(), anyVar())
	}
	for i := 0; i < n/3; i++ {
		p.AddLoad(anyVar(), anyVar())
		p.AddStore(anyVar(), anyVar())
	}
	for i := 0; i < n/8; i++ {
		f := anyMem()
		p.AddFunc(f, anyVar(), []VarID{anyVar(), anyVar()})
		tgt := anyVar()
		p.AddBase(tgt, f)
		p.AddCall(tgt, anyVar(), []VarID{anyVar()})
	}
	for i := 0; i < n/8; i++ {
		p.SetFlag(anyMem(), FlagExternal)
	}
	for _, fl := range []Flags{FlagPointsExt, FlagEscapedPointees, FlagStoreScalar, FlagLoadScalar, FlagImpFunc} {
		p.SetFlag(anyMem(), fl)
	}
	return p
}

// growProblem returns a clone of p with additional random constraints (and
// optionally appended variables) layered on top.
func growProblem(p *Problem, seed int64, appendVars bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	q := p.Clone()
	n := q.NumVars()
	anyVar := func() VarID { return VarID(rng.Intn(n)) }
	anyMem := func() VarID {
		for {
			v := anyVar()
			if q.Kind[v] == Memory {
				return v
			}
		}
	}
	if appendVars {
		for i := 0; i < 4; i++ {
			q.AddVar("", VarKind(rng.Intn(2)), true)
		}
		n = q.NumVars()
	}
	for i := 0; i < 6; i++ {
		switch rng.Intn(6) {
		case 0:
			q.AddBase(anyVar(), anyMem())
		case 1:
			q.AddSimple(anyVar(), anyVar())
		case 2:
			q.AddLoad(anyVar(), anyVar())
		case 3:
			q.AddStore(anyVar(), anyVar())
		case 4:
			q.AddCall(anyVar(), anyVar(), []VarID{anyVar()})
		case 5:
			f := anyMem()
			q.AddFunc(f, anyVar(), []VarID{anyVar()})
			q.AddBase(anyVar(), f)
		}
	}
	q.SetFlag(anyMem(), FlagExternal)
	q.SetFlag(anyVar(), []Flags{FlagPointsExt, FlagEscapedPointees, FlagStoreScalar, FlagLoadScalar, FlagImpFunc}[rng.Intn(5)])
	return q
}

// TestResumeMatchesScratch grows random problems and asserts the resumed
// solve's fingerprint is bit-identical to a from-scratch solve of the
// grown problem, across every resumable configuration shape, including a
// second chained generation resumed from the first resume's checkpoint.
func TestResumeMatchesScratch(t *testing.T) {
	for _, cfg := range resumableConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				p0 := genCheckpointProblem(seed, 64)
				sol0, ck, err := solveCheckpointed(p0, cfg)
				if err != nil {
					t.Fatalf("seed %d: checkpointed solve: %v", seed, err)
				}
				if ck == nil {
					t.Fatalf("seed %d: no checkpoint for resumable config", seed)
				}
				ref0 := MustSolve(p0, cfg)
				if sol0.Fingerprint() != ref0.Fingerprint() {
					t.Fatalf("seed %d: checkpointed solve differs from plain solve", seed)
				}
				appendVars := cfg.Rep == IP && seed%2 == 0
				p1 := growProblem(p0, seed*977, appendVars)
				d := DiffSummaries(BuildSummary(p0), BuildSummary(p1))
				if !d.Monotone() {
					t.Fatalf("seed %d: grown delta should be monotone", seed)
				}
				sol1, ck1, err := resumeAdded(ck, p1, d)
				if err != nil {
					t.Fatalf("seed %d: resume: %v", seed, err)
				}
				ref1 := MustSolve(p1, cfg)
				if got, want := sol1.Fingerprint(), ref1.Fingerprint(); got != want {
					t.Fatalf("seed %d appendVars=%v: resumed fingerprint differs from scratch\nresumed:\n%s\nscratch:\n%s",
						seed, appendVars, got, want)
				}
				if ck1 == nil {
					t.Fatalf("seed %d: resume returned no next checkpoint", seed)
				}
				// Chain a second generation off the resumed checkpoint.
				p2 := growProblem(p1, seed*31337, false)
				d12 := DiffSummaries(BuildSummary(p1), BuildSummary(p2))
				sol2, _, err := resumeAdded(ck1, p2, d12)
				if err != nil {
					t.Fatalf("seed %d: second resume: %v", seed, err)
				}
				ref2 := MustSolve(p2, cfg)
				if sol2.Fingerprint() != ref2.Fingerprint() {
					t.Fatalf("seed %d: second-generation resume differs from scratch", seed)
				}
			}
		})
	}
}

// TestResumeRejects covers the fallback conditions: non-monotone deltas,
// EP variable growth, and non-resumable configurations.
func TestResumeRejects(t *testing.T) {
	p0 := genCheckpointProblem(7, 64)
	cfg := Config{Rep: EP, Solver: Worklist}
	_, ck, err := solveCheckpointed(p0, cfg)
	if err != nil || ck == nil {
		t.Fatalf("checkpointed solve: ck=%v err=%v", ck, err)
	}

	// Removal → non-monotone → rejected.
	p1 := p0.Clone()
	p1.Simple = p1.Simple[:len(p1.Simple)-1]
	d := DiffSummaries(BuildSummary(p0), BuildSummary(p1))
	if d.Monotone() {
		t.Fatal("removal delta should not be monotone")
	}
	if _, _, err := resumeAdded(ck, p1, d); err == nil {
		t.Fatal("resume of a non-monotone delta should fail")
	}

	// EP + appended variable → rejected even though monotone.
	p2 := p0.Clone()
	p2.AddVar("", Register, true)
	d2 := DiffSummaries(BuildSummary(p0), BuildSummary(p2))
	if !d2.Monotone() {
		t.Fatal("append delta should be monotone")
	}
	if _, _, err := resumeAdded(ck, p2, d2); err == nil {
		t.Fatal("EP resume with a grown universe should fail")
	}

	// Demand roots → rejected: a slice is not the checkpointed problem.
	// Neither path hands out a checkpoint, even into a stale variable.
	next := ck
	dAdd := DiffSummaries(BuildSummary(p0), BuildSummary(p0))
	if _, err := ck.ResumeAdded(p0, dAdd, SolveOptions{Demand: []VarID{0}, Checkpoint: &next}); !errors.Is(err, ErrNotResumable) || next != nil {
		t.Fatalf("demand resume: err=%v next=%v, want ErrNotResumable and no checkpoint", err, next)
	}
	next = ck
	if _, err := Solve(p0, cfg, SolveOptions{Demand: []VarID{0}, Checkpoint: &next}); err != nil || next != nil {
		t.Fatalf("demand solve: err=%v next=%v, want no checkpoint", err, next)
	}

	// Non-resumable configs yield no checkpoint.
	for _, bad := range []Config{
		{Rep: IP, Solver: Worklist, OVS: true},
		{Rep: IP, Solver: Worklist, HCD: true},
		{Rep: IP, Solver: Worklist, LCD: true},
		{Rep: IP, Solver: Worklist, OCD: true},
		{Rep: IP, Solver: Worklist, PIP: true},
		{Rep: EP, Solver: Wave},
		{Rep: IP, Solver: Worklist, Budget: Budget{Firings: 10000}},
	} {
		if Resumable(bad) {
			t.Fatalf("config %s should not be resumable", bad.String())
		}
		_, ck, err := solveCheckpointed(p0, bad)
		if err != nil {
			t.Fatalf("config %s: %v", bad.String(), err)
		}
		if ck != nil {
			t.Fatalf("config %s returned a checkpoint", bad.String())
		}
	}
}
