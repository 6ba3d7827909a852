package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSummaryRoundTripSerialize is the wire-format property test:
// build → serialize → parse must reproduce the summary exactly (Equal and
// Hash), across generated problems of several shapes and the empty
// problem.
func TestSummaryRoundTripSerialize(t *testing.T) {
	problems := []*Problem{NewProblem()}
	for seed := int64(1); seed <= 6; seed++ {
		problems = append(problems, genCheckpointProblem(seed, 40+8*int(seed)))
	}
	for i, p := range problems {
		s := BuildSummary(p)
		parsed, err := ParseSummary(s.Serialize())
		if err != nil {
			t.Fatalf("problem %d: parse: %v", i, err)
		}
		if !parsed.Equal(s) {
			t.Fatalf("problem %d: parsed summary differs from built", i)
		}
		if parsed.Hash() != s.Hash() {
			t.Fatalf("problem %d: hash not stable across round-trip", i)
		}
		if parsed.NumVars() != s.NumVars() || parsed.NumConstraints() != s.NumConstraints() {
			t.Fatalf("problem %d: size metrics drifted across round-trip", i)
		}
		// Serialization is canonical: re-serializing the parse is
		// byte-identical.
		if !bytes.Equal(parsed.Serialize(), s.Serialize()) {
			t.Fatalf("problem %d: serialization not canonical", i)
		}
	}
}

// TestSummaryDiffApply is the diff algebra property test: for arbitrary
// summary pairs (A, B), DiffSummaries(A, B).Apply(A) must equal B — the
// delta is a complete edit script between the two generations, in either
// direction. The self-diff must be empty.
func TestSummaryDiffApply(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		a := BuildSummary(genCheckpointProblem(rng.Int63n(1000)+1, 32+rng.Intn(64)))
		b := BuildSummary(genCheckpointProblem(rng.Int63n(1000)+1, 32+rng.Intn(64)))

		if !DiffSummaries(a, a).Empty() {
			t.Fatal("self-diff not empty")
		}
		d := DiffSummaries(a, b)
		if got := d.Apply(a); !got.Equal(b) {
			t.Fatalf("trial %d: Apply(Diff(a,b), a) != b", trial)
		}
		if got := d.Apply(a); got.Hash() != b.Hash() {
			t.Fatalf("trial %d: applied hash differs", trial)
		}
		// The reverse delta must also be a complete edit script.
		if got := DiffSummaries(b, a).Apply(b); !got.Equal(a) {
			t.Fatalf("trial %d: Apply(Diff(b,a), b) != a", trial)
		}
		if d.Empty() && a.Hash() != b.Hash() {
			t.Fatalf("trial %d: empty delta between distinct summaries", trial)
		}
	}
}

// TestSummaryDiffApplyAfterEdits mirrors the incremental pipeline's exact
// usage: small edits applied to one problem, with the delta between
// consecutive generations applied to the old summary reproducing the new
// one, and the monotonicity verdict matching the edit's shape.
func TestSummaryDiffApplyAfterEdits(t *testing.T) {
	base := genCheckpointProblem(7, 64)
	old := BuildSummary(base)

	grown := base.Clone()
	v := grown.AddVar("p", Register, true)
	m := grown.AddVar("o", Memory, true)
	grown.AddBase(v, m)
	grown.AddSimple(0, v)
	newSum := BuildSummary(grown)
	d := DiffSummaries(old, newSum)
	if d.Removed() != 0 || !d.Monotone() {
		t.Fatalf("pure growth should be monotone: +%d/-%d", d.Added(), d.Removed())
	}
	if !d.Apply(old).Equal(newSum) {
		t.Fatal("growth delta does not reproduce the new summary")
	}

	shrunk := base.Clone()
	shrunk.Simple = shrunk.Simple[:len(shrunk.Simple)-1]
	d = DiffSummaries(old, BuildSummary(shrunk))
	if d.Removed() == 0 || d.Monotone() {
		t.Fatalf("removal should be non-monotone: +%d/-%d", d.Added(), d.Removed())
	}
	if !d.Apply(old).Equal(BuildSummary(shrunk)) {
		t.Fatal("removal delta does not reproduce the new summary")
	}
}

// TestSummaryParseRejects pins the parser's error handling: corrupted
// inputs must produce errors, never panics or silently wrong summaries.
func TestSummaryParseRejects(t *testing.T) {
	good := BuildSummary(genCheckpointProblem(1, 24)).Serialize()
	bad := [][]byte{
		nil,
		[]byte("not a summary"),
		[]byte("pipsummary v1\n"),
		[]byte("pipsummary v1\nvars -3\n"),
		[]byte("pipsummary v1\nvars 1\nv zz\n"),
		[]byte("pipsummary v1\nvars 1\nv r1ff\nb 0\n"),
		[]byte("pipsummary v1\nvars 2\nv r1ff\n"), // fewer vars than declared
	}
	for i, data := range bad {
		if _, err := ParseSummary(data); err == nil {
			t.Errorf("corrupt input %d parsed without error", i)
		}
	}
	// Byte-flip robustness: a corrupted byte either parses to a summary
	// (benign flips inside numbers) or errors — it must never panic.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), good...)
		data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		_, _ = ParseSummary(data)
	}
}

// TestSummaryEqualDetectsEachField: Equal must notice a difference in any
// one per-variable table or constraint list.
func TestSummaryEqualDetectsEachField(t *testing.T) {
	base := BuildSummary(genCheckpointProblem(3, 48))
	fresh := func() *ProblemSummary {
		s, err := ParseSummary(base.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if !fresh().Equal(base) {
		t.Fatal("identical summaries compare unequal")
	}
	mutations := map[string]func(s *ProblemSummary){
		"universe":  func(s *ProblemSummary) { s.Kind = s.Kind[:len(s.Kind)-1] },
		"kind":      func(s *ProblemSummary) { s.Kind[0] ^= 1 },
		"ptrcompat": func(s *ProblemSummary) { s.PtrCompat[0] = !s.PtrCompat[0] },
		"flags":     func(s *ProblemSummary) { s.Flags[0] ^= FlagEscapedPointees },
		"base":      func(s *ProblemSummary) { s.Base[0].Src++ },
		"simple":    func(s *ProblemSummary) { s.Simple[0].Dst++ },
		"load":      func(s *ProblemSummary) { s.Load[0].Src++ },
		"store":     func(s *ProblemSummary) { s.Store[0].Dst++ },
		"funcs":     func(s *ProblemSummary) { s.Funcs[0].Ret++ },
		"nfuncs":    func(s *ProblemSummary) { s.Funcs = s.Funcs[1:] },
		"calls":     func(s *ProblemSummary) { s.Calls[0].Args[0]++ },
	}
	for name, mutate := range mutations {
		s := fresh()
		mutate(s)
		if s.Equal(base) || base.Equal(s) {
			t.Fatalf("%s: differing summaries compare equal", name)
		}
	}
}

// TestSolutionWithProblem: a rename-only reuse resolves queries against
// the new problem while keeping every answer.
func TestSolutionWithProblem(t *testing.T) {
	p := genCheckpointProblem(5, 32)
	sol := MustSolve(p, DefaultConfig())
	renamed := p.Clone()
	reused := sol.WithProblem(renamed)
	if reused.Problem() != renamed || sol.Problem() != p {
		t.Fatal("WithProblem did not rebind only the copy")
	}
	if reused.Fingerprint() != sol.Fingerprint() {
		t.Fatal("WithProblem changed the solution")
	}
}

func TestSolverKindString(t *testing.T) {
	for k, want := range map[SolverKind]string{Naive: "Naive", Wave: "Wave", Worklist: "WL"} {
		if got := k.String(); got != want {
			t.Fatalf("SolverKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
