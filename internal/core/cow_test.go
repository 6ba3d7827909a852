package core

import (
	"testing"

	"github.com/pip-analysis/pip/internal/bitset"
)

// TestCopyOnWriteAccessors pins the clone-before-mutate contract of the
// solver accessors that back checkpoint sharing: a set marked shared must
// be cloned exactly once on its first mutation and the original left
// untouched, while reads and idempotent edge re-inserts must not clone.
func TestCopyOnWriteAccessors(t *testing.T) {
	s := newTestSolver(6)
	s.ptsShared = make([]bool, s.n)
	s.succShared = make([]bool, s.n)

	orig := &bitset.Set{}
	orig.Add(3)
	s.pts[0] = orig
	s.ptsShared[0] = true
	got := s.ptsOf(0)
	if got == orig {
		t.Fatal("ptsOf returned the shared set itself")
	}
	if s.ptsShared[0] {
		t.Fatal("ptsOf left the shared mark set")
	}
	if got != s.ptsOf(0) {
		t.Fatal("second ptsOf cloned again")
	}
	got.Add(4)
	if orig.Contains(4) || orig.Len() != 1 {
		t.Fatal("mutation leaked into the shared set")
	}

	edge := &bitset.Set{}
	edge.Add(2)
	s.succ[1] = edge
	s.succShared[1] = true
	// Re-inserting an existing edge is the idempotent re-seed case: no
	// clone, no ownership change.
	if s.addSucc(1, 2) {
		t.Fatal("existing edge reported as added")
	}
	if s.succ[1] != edge || !s.succShared[1] {
		t.Fatal("idempotent re-insert broke the sharing")
	}
	// A genuinely new edge clones first.
	if !s.addSucc(1, 5) {
		t.Fatal("new edge not added")
	}
	if s.succ[1] == edge || s.succShared[1] {
		t.Fatal("new edge mutated the shared set in place")
	}
	if edge.Contains(5) || edge.Len() != 1 {
		t.Fatal("shared successor set changed")
	}
	if own := s.ownSucc(1); own != s.succ[1] || own == edge {
		t.Fatal("ownSucc did not return the owned clone")
	}
	if s.ownSucc(4).Len() != 0 {
		t.Fatal("ownSucc on a nil slot should create an empty set")
	}
}

// TestCopyOnWriteUnifyTransfersOwnership drives unify directly over
// shared sets. Resumable configurations never unify, so this path is
// defensive — but if a unifying configuration ever meets shared state,
// the ownership marks must move with the sets.
func TestCopyOnWriteUnifyTransfersOwnership(t *testing.T) {
	s := newTestSolver(6)
	s.ptsShared = make([]bool, s.n)
	s.succShared = make([]bool, s.n)

	lpts := &bitset.Set{}
	lpts.Add(1)
	lsucc := &bitset.Set{}
	lsucc.Add(2)
	s.pts[0], s.ptsShared[0] = lpts, true
	s.succ[0], s.succShared[0] = lsucc, true

	// Winner has no sets: the loser's shared sets transfer with their
	// marks intact.
	w := s.unify(0, 1)
	if s.pts[w] != lpts || !s.ptsShared[w] {
		t.Fatal("shared points-to set did not transfer with its mark")
	}
	if s.succ[w] != lsucc || !s.succShared[w] {
		t.Fatal("shared successor set did not transfer with its mark")
	}

	// Winner already has sets: the merge must clone the winner's shared
	// sets before the union, leaving the originals untouched.
	wpts := &bitset.Set{}
	wpts.Add(7)
	s2 := newTestSolver(6)
	s2.ptsShared = make([]bool, s2.n)
	s2.succShared = make([]bool, s2.n)
	s2.pts[0], s2.ptsShared[0] = wpts.Clone(), true
	shared0 := s2.pts[0]
	s2.pts[1] = &bitset.Set{}
	s2.pts[1].Add(9)
	w2 := s2.unify(0, 1)
	if s2.pts[w2] == nil || !s2.pts[w2].Contains(9) || !s2.pts[w2].Contains(7) {
		t.Fatal("merge lost pointees")
	}
	if shared0.Contains(9) {
		t.Fatal("merge mutated a shared set in place")
	}
}

// TestResumeSharesCheckpointState is the end-to-end pin for copy-on-write
// restores: one checkpoint seeds several resumes, each bit-identical to a
// from-scratch solve, while the checkpoint and the solutions already
// handed out stay intact.
func TestResumeSharesCheckpointState(t *testing.T) {
	for _, cfg := range []Config{
		{Rep: IP, Solver: Worklist, Order: FIFO, DP: true},
		{Rep: IP, Solver: Worklist, Order: FIFO},
	} {
		base := genCheckpointProblem(11, 96)
		sol0, ck, err := solveCheckpointed(base, cfg)
		if err != nil || ck == nil {
			t.Fatalf("%s: checkpointed solve: %v", cfg, err)
		}
		if ck.Config() != cfg || ck.NumVars() != base.NumVars() {
			t.Fatalf("%s: checkpoint metadata wrong", cfg)
		}
		if ck.ApproxBytes() <= 0 {
			t.Fatalf("%s: checkpoint reports no retained memory", cfg)
		}
		fp0 := sol0.Fingerprint()

		edited := base.Clone()
		p := edited.AddVar("p", Register, true)
		m := edited.AddVar("m", Memory, true)
		edited.AddBase(p, m)
		edited.AddSimple(0, p)
		edited.AddStore(p, 1)
		d := DiffSummaries(BuildSummary(base), BuildSummary(edited))

		want := MustSolve(edited, cfg).Fingerprint()
		var prev string
		for trial := 0; trial < 3; trial++ {
			sol, next, err := resumeAdded(ck, edited, d)
			if err != nil {
				t.Fatalf("%s trial %d: resume: %v", cfg, trial, err)
			}
			fp := sol.Fingerprint()
			if fp != want {
				t.Fatalf("%s trial %d: resumed solution differs from scratch", cfg, trial)
			}
			if trial > 0 && fp != prev {
				t.Fatalf("%s trial %d: repeated resume from one checkpoint diverged", cfg, trial)
			}
			prev = fp
			if next == nil {
				t.Fatalf("%s trial %d: no next-generation checkpoint", cfg, trial)
			}
			// The chained generation must also resume correctly.
			if trial == 0 {
				grown := edited.Clone()
				q := grown.AddVar("q", Register, true)
				grown.AddBase(q, m)
				d2 := DiffSummaries(BuildSummary(edited), BuildSummary(grown))
				sol2, _, err := resumeAdded(next, grown, d2)
				if err != nil {
					t.Fatalf("%s: chained resume: %v", cfg, err)
				}
				if sol2.Fingerprint() != MustSolve(grown, cfg).Fingerprint() {
					t.Fatalf("%s: chained resume differs from scratch", cfg)
				}
			}
		}
		// The generation-0 solution shares sets with the checkpoint the
		// resumes drew from; it must still match a fresh baseline solve.
		if sol0.Fingerprint() != fp0 || fp0 != MustSolve(base, cfg).Fingerprint() {
			t.Fatalf("%s: baseline solution corrupted by resumes", cfg)
		}
	}
}
