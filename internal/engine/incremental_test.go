package engine

import (
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/differential"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/ir"
)

// resumableCfg is a configuration on the checkpointable trajectory
// (no unification, no budget), so incremental growth actually resumes.
func resumableCfg() core.Config {
	return core.Config{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO}
}

func TestRunIncrementalPaths(t *testing.T) {
	cfg := resumableCfg()
	base := differential.Generate(11, differential.DefaultGen())
	eng := New(Options{Workers: 2})

	// Generation 0: from-scratch solve establishing the lineage.
	res, st := eng.RunIncremental(nil, Job{Gen: &core.Gen{Problem: base}, Config: cfg})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Incremental == nil || res.Incremental.Generation != 0 {
		t.Fatalf("generation 0 stats missing: %+v", res.Incremental)
	}
	if st == nil || !st.Checkpointed() {
		t.Fatal("resumable lineage should checkpoint at generation 0")
	}
	if res.Sol.Fingerprint() != core.MustSolve(base, cfg).Fingerprint() {
		t.Fatal("generation 0 differs from direct solve")
	}

	// Constraint-identical resubmission: solution reused, no solve.
	res1, st1 := eng.RunIncremental(st, Job{Gen: &core.Gen{Problem: base.Clone()}, Config: cfg})
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if !res1.Incremental.ReusedSolution || !res1.CacheHit || res1.Duration != 0 {
		t.Fatalf("identical resubmission should reuse: %+v", res1.Incremental)
	}

	// Monotone growth: resumes from the checkpoint, answer bit-identical
	// to a from-scratch solve of the grown problem.
	grown := base.Clone()
	v := grown.AddVar("new_r", core.Register, true)
	m := grown.AddVar("new_m", core.Memory, true)
	grown.AddBase(v, m)
	grown.AddSimple(0, v)
	res2, st2 := eng.RunIncremental(st1, Job{Gen: &core.Gen{Problem: grown}, Config: cfg})
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if !res2.Incremental.Resumed || res2.Incremental.FallbackReason != "" {
		t.Fatalf("monotone growth should resume: %+v", res2.Incremental)
	}
	if res2.Incremental.Reused == 0 || res2.Incremental.Added == 0 {
		t.Fatalf("resume should report reused and added work: %+v", res2.Incremental)
	}
	if res2.Sol.Fingerprint() != core.MustSolve(grown, cfg).Fingerprint() {
		t.Fatal("resumed solution differs from scratch")
	}

	// Removal: falls back to a full solve, still exact.
	shrunk := base.Clone()
	shrunk.Simple = shrunk.Simple[:len(shrunk.Simple)-1]
	res3, _ := eng.RunIncremental(st2, Job{Gen: &core.Gen{Problem: shrunk}, Config: cfg})
	if res3.Err != nil {
		t.Fatal(res3.Err)
	}
	if res3.Incremental.Resumed || res3.Incremental.FallbackReason == "" {
		t.Fatalf("removal should fall back: %+v", res3.Incremental)
	}
	if res3.Sol.Fingerprint() != core.MustSolve(shrunk, cfg).Fingerprint() {
		t.Fatal("fallback solution differs from scratch")
	}

	if stats := eng.Stats(); stats.Incremental != 4 {
		t.Fatalf("expected 4 incremental jobs counted, got %d", stats.Incremental)
	}
}

// TestRunIncrementalLeavesCacheAlone pins the incremental path's cache
// contract: it neither writes the solution cache nor, through eviction or
// drain, the attached store, and it leaves exhaustive jobs of the same
// module to miss and then hit as usual.
func TestRunIncrementalLeavesCacheAlone(t *testing.T) {
	cfg := resumableCfg()
	mods := testModules(2)
	eng := engineWithStore(t, t.TempDir(), 1)

	var st *incr.State
	for gen, m := range []*ir.Module{mods[0], mods[0], mods[1]} {
		var res Result
		res, st = eng.RunIncremental(st, Job{Module: m, Config: cfg})
		if res.Err != nil {
			t.Fatalf("generation %d: %v", gen, res.Err)
		}
	}
	if err := eng.SyncStore(); err != nil {
		t.Fatal(err)
	}
	if stats := eng.Stats(); stats.CacheEntries != 0 {
		t.Fatalf("incremental generations left %d cache entries, want 0", stats.CacheEntries)
	}
	if saves := eng.DiskStore().Stats().Saves; saves != 0 {
		t.Fatalf("incremental generations reached the store: %d saves, want 0", saves)
	}
	if plain := eng.RunOne(Job{Module: mods[1], Config: cfg}); plain.Err != nil || plain.CacheHit {
		t.Fatalf("first exhaustive job: err %v, cache hit %v; want a miss", plain.Err, plain.CacheHit)
	}
	if plain := eng.RunOne(Job{Module: mods[1], Config: cfg}); plain.Err != nil || !plain.CacheHit || plain.DiskHit {
		t.Fatalf("second exhaustive job: err %v, cache hit %v, disk hit %v; want a memory hit", plain.Err, plain.CacheHit, plain.DiskHit)
	}
}

func TestDemandJob(t *testing.T) {
	cfg := resumableCfg()
	mods := testModules(1)
	eng := New(Options{Workers: 1, Cache: true})

	res := eng.RunOne(Job{Module: mods[0], Config: cfg, Demand: []core.VarID{0}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.DemandStats == nil || res.Sol.Demand() == nil {
		t.Fatal("demand job should report demand stats on the result and the solution")
	}
	if !res.Sol.Explored(0) {
		t.Fatal("demand root not explored")
	}
	if res.DemandStats.ExploredVars > res.DemandStats.TotalVars {
		t.Fatalf("inconsistent demand stats: %+v", res.DemandStats)
	}
	// The slice answers match a direct demand solve of the same problem.
	want, err := core.Solve(res.Gen.Problem, cfg, core.SolveOptions{Demand: []core.VarID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sol.Fingerprint() != want.Fingerprint() {
		t.Fatal("engine demand solution differs from direct demand solve")
	}

	// Demand jobs bypass the cache in both directions: nothing stored, and
	// a later exhaustive job of the same module misses.
	if stats := eng.Stats(); stats.CacheEntries != 0 {
		t.Fatalf("demand job must not populate the cache, got %d entries", stats.CacheEntries)
	}
	if full := eng.RunOne(Job{Module: mods[0], Config: cfg}); full.CacheHit {
		t.Fatal("exhaustive job after demand job must not be a cache hit")
	}
	if stats := eng.Stats(); stats.Demand != 1 {
		t.Fatalf("expected 1 demand job counted, got %d", stats.Demand)
	}
}
