package incr

import (
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/obs"
)

func buildProblem() *core.Problem {
	p := core.NewProblem()
	a := p.AddVar("a", core.Register, true)
	b := p.AddVar("b", core.Register, true)
	m := p.AddVar("m", core.Memory, true)
	n := p.AddVar("n", core.Memory, true)
	p.AddBase(a, m)
	p.AddSimple(b, a)
	p.AddStore(b, a)
	p.AddLoad(b, a)
	p.SetFlag(n, core.FlagExternal)
	return p
}

func TestUpdatePaths(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist}
	st, err := New(buildProblem(), cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Checkpointed() {
		t.Fatal("resumable config should checkpoint")
	}

	// Rename-only resubmission: empty delta, solution reused.
	renamed := buildProblem()
	renamed.Names[0] = "a_renamed"
	st1, stats, err := st.Update(renamed, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReusedSolution || stats.Resumed || stats.Added != 0 {
		t.Fatalf("rename should reuse the solution, got %+v", stats)
	}
	if st1.Generation != 1 || st1.Sol.Problem() != renamed {
		t.Fatal("reused solution should resolve against the new problem")
	}

	// Added constraint: resumed, fingerprint identical to scratch.
	grown := buildProblem()
	v := grown.AddVar("p", core.Register, true)
	w := grown.AddVar("q", core.Memory, true)
	grown.AddBase(v, w)
	grown.AddSimple(core.VarID(grown.NumVars()-2), 0)
	st2, stats, err := st1.Update(grown, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed || stats.FallbackReason != "" {
		t.Fatalf("monotone growth should resume, got %+v", stats)
	}
	if stats.Added == 0 || stats.Reused == 0 {
		t.Fatalf("resume stats should count added and reused constraints: %+v", stats)
	}
	ref := core.MustSolve(grown, cfg)
	if st2.Sol.Fingerprint() != ref.Fingerprint() {
		t.Fatal("resumed solution differs from scratch")
	}

	// Removal: falls back to a full solve but still answers exactly.
	shrunk := buildProblem()
	shrunk.Simple = nil
	st3, stats, err := st1.Update(shrunk, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed || stats.ReusedSolution || stats.FallbackReason == "" {
		t.Fatalf("removal should fall back, got %+v", stats)
	}
	if st3.Sol.Fingerprint() != core.MustSolve(shrunk, cfg).Fingerprint() {
		t.Fatal("fallback solution differs from scratch")
	}
	if !st3.Checkpointed() {
		t.Fatal("fallback should re-establish the checkpoint")
	}
}

func TestUpdateNonResumableConfig(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist, PIP: true}
	st, err := New(buildProblem(), cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpointed() {
		t.Fatal("PIP config should not checkpoint")
	}
	grown := buildProblem()
	grown.AddSimple(0, 1)
	st1, stats, err := st.Update(grown, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed || stats.FallbackReason == "" {
		t.Fatalf("non-resumable config should fall back, got %+v", stats)
	}
	if st1.Sol.Fingerprint() != core.MustSolve(grown, cfg).Fingerprint() {
		t.Fatal("fallback solution differs from scratch")
	}

	// Rename-only reuse works even without a checkpoint.
	renamed := buildProblem()
	renamed.Names[1] = "other"
	_, stats, err = st.Update(renamed, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReusedSolution {
		t.Fatalf("empty delta should reuse regardless of checkpointability: %+v", stats)
	}
}

func TestUpdateChainedGenerations(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist, Order: core.Topo, DP: true}
	p := buildProblem()
	st, err := New(p, cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	cur := p
	for gen := 1; gen <= 5; gen++ {
		next := cur.Clone()
		v := next.AddVar("", core.Register, true)
		m := next.AddVar("", core.Memory, true)
		next.AddBase(v, m)
		next.AddSimple(v, core.VarID(gen%next.NumVars()))
		st2, stats, err := st.Update(next, obs.Track{})
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if !stats.Resumed {
			t.Fatalf("gen %d should resume, got %+v", gen, stats)
		}
		if st2.Generation != gen {
			t.Fatalf("gen %d: got generation %d", gen, st2.Generation)
		}
		if st2.Sol.Fingerprint() != core.MustSolve(next, cfg).Fingerprint() {
			t.Fatalf("gen %d: resumed solution differs from scratch", gen)
		}
		st, cur = st2, next
	}
}

func TestUpdateRetypedAndEPGrowth(t *testing.T) {
	// Retyped variable: same counts, different kind — non-monotone.
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist}
	st, err := New(buildProblem(), cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	retyped := buildProblem()
	retyped.Kind[0] = core.Memory
	_, stats, err := st.Update(retyped, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed || stats.FallbackReason == "" {
		t.Fatalf("retyped variable should fall back, got %+v", stats)
	}

	// Universe growth under the explicit-Ω representation: Ω's id would
	// shift, so the checkpoint cannot be reused.
	epCfg := core.Config{Rep: core.EP, Solver: core.Worklist}
	stEP, err := New(buildProblem(), epCfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	grown := buildProblem()
	v := grown.AddVar("x", core.Register, true)
	grown.AddSimple(v, 0)
	st1, stats, err := stEP.Update(grown, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed || stats.FallbackReason == "" {
		t.Fatalf("EP universe growth should fall back, got %+v", stats)
	}
	if st1.Sol.Fingerprint() != core.MustSolve(grown, epCfg).Fingerprint() {
		t.Fatal("EP fallback solution differs from scratch")
	}
}

func TestUpdateInvalidProblem(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist}
	bad := buildProblem()
	bad.Simple = append(bad.Simple, core.Edge{Dst: 0, Src: 99}) // dangling id
	if _, err := New(bad, cfg, obs.Track{}); err == nil {
		t.Fatal("New accepted an invalid problem")
	}
	st, err := New(buildProblem(), cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	// The resume path rejects the invalid problem, and so does the
	// from-scratch fallback: Update must surface the error, not panic.
	if _, _, err := st.Update(bad, obs.Track{}); err == nil {
		t.Fatal("Update accepted an invalid problem")
	}
}

// TestUpdateCompactsOnFallback resubmits a problem numbered against the
// previous generation with one variable retired: the removal falls back,
// and the fallback solves (and keeps) the compacted problem.
func TestUpdateCompactsOnFallback(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist}
	st, err := New(buildProblem(), cfg, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	retired := buildProblem()
	retired.Flags[3] = 0 // n retires: no flags, no constraints
	retired.Order = []core.VarID{0, 1, 2}
	st1, stats, err := st.Update(retired, obs.Track{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FallbackReason != FallbackRemovals {
		t.Fatalf("retiring a flagged variable should fall back on removals, got %+v", stats)
	}
	p := st1.Problem
	if p.NumVars() != 3 || p.Order != nil || st1.Sol.Problem() != p {
		t.Fatalf("fallback kept %d vars (order %v); want the compacted 3 solved", p.NumVars(), p.Order)
	}
	if !st1.Summary.Equal(core.BuildSummary(p)) {
		t.Fatal("summary does not describe the compacted problem")
	}
	if st1.Sol.Fingerprint() != core.MustSolve(retired.Compact(), cfg).Fingerprint() {
		t.Fatal("fallback solution differs from a scratch solve of the compacted problem")
	}
}

func TestFallbackLabel(t *testing.T) {
	for reason, want := range map[string]string{
		FallbackInitial:              "initial",
		FallbackRetyped:              "retyped",
		FallbackRemovals:             "removals",
		FallbackOmegaGrowth:          "explicit_omega_growth",
		FallbackNotResumable:         "not_resumable",
		FallbackNoCheckpoint:         "no_checkpoint",
		core.ErrNotResumable.Error(): "resume_refused",
		"":                           "resume_refused",
	} {
		got := FallbackLabel(reason)
		if got != want {
			t.Errorf("FallbackLabel(%q) = %q, want %q", reason, got, want)
		}
		found := false
		for _, l := range FallbackLabels {
			found = found || l == got
		}
		if !found {
			t.Errorf("label %q is not in FallbackLabels", got)
		}
	}
}
