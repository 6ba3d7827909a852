package differential

import (
	"math/rand"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
)

// TestIncrementalEditScripts is the incremental gate: seeded random edit
// scripts across the representative configuration set. After every edit
// the incremental solution must be bit-identical to a from-scratch solve
// — on resumable configurations via the resume path, everywhere else via
// the sound fallback.
func TestIncrementalEditScripts(t *testing.T) {
	const edits = 8
	for _, cfg := range RepresentativeConfigs() {
		if cfg.Solver == core.Wave {
			// Wave cells never resume (not checkpointable), and the wave
			// solver is the slowest; one fallback-only representative below
			// (Naive) already covers the non-worklist fallback path.
			continue
		}
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				base := Generate(seed, DefaultGen())
				rng := rand.New(rand.NewSource(seed * 7919))
				script := make([]byte, 3*edits)
				rng.Read(script)
				rep, err := CheckEditScript(base, script, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Edits == 0 {
					t.Fatalf("seed %d: script applied no edits", seed)
				}
				t.Logf("seed %d: %s", seed, rep)
			}
		})
	}
}

// TestIncrementalEditPathsExercised guards the gate itself: a script of
// known shape on a resumable configuration must hit all three incremental
// paths (reuse on rename, resume on monotone growth, fallback on removal).
// Without this the sweep could pass vacuously with every edit falling back.
func TestIncrementalEditPathsExercised(t *testing.T) {
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO}
	base := Generate(5, DefaultGen())
	script := []byte{
		5, 3, 9, // rename: empty delta, reuse
		0, 11, 42, // add copy edge: monotone, resume
		1, 7, 0, // grow universe: monotone under IP, resume
		4, 2, 0, // delete copy edge: fallback
		3, 8, 21, // add store after fallback: resume from re-established checkpoint
	}
	rep, err := CheckEditScript(base, script, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused == 0 || rep.Resumed < 2 || rep.Fallbacks == 0 {
		t.Fatalf("script missed an incremental path: %s", rep)
	}
}

// TestIncrementalEditEPGrowthFallsBack pins the explicit-Ω rule: growing
// the variable universe under EP (where Ω is a materialized node whose
// points-to set enumerates every variable) must fall back, and the
// fallback must still match scratch bit-for-bit.
func TestIncrementalEditEPGrowthFallsBack(t *testing.T) {
	cfg := core.Config{Rep: core.EP, Solver: core.Worklist, Order: core.FIFO}
	base := Generate(6, DefaultGen())
	rep, err := CheckEditScript(base, []byte{1, 13, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != 1 {
		t.Fatalf("EP universe growth should fall back: %s", rep)
	}
}

// TestIncrementalEditScriptDeterminism: the interpreter is part of the
// replay story — the same base and script must yield identical versions.
func TestIncrementalEditScriptDeterminism(t *testing.T) {
	base := Generate(8, DefaultGen())
	script := []byte{0, 1, 2, 6, 0, 0, 4, 5, 6, 8, 9, 10}
	a := ApplyEdits(base, script)
	b := ApplyEdits(base, script)
	if len(a) != len(b) {
		t.Fatalf("version counts differ: %d vs %d", len(a), len(b))
	}
	cfg := core.Config{Rep: core.IP, Solver: core.Worklist}
	for i := range a {
		if core.MustSolve(a[i], cfg).Fingerprint() != core.MustSolve(b[i], cfg).Fingerprint() {
			t.Fatalf("version %d not deterministic", i)
		}
	}
	if base.NumConstraints() != Generate(8, DefaultGen()).NumConstraints() {
		t.Fatal("ApplyEdits mutated the base problem")
	}
}
