package engine

// The dedicated race target (`go test -race ./internal/engine/...`, wired
// to `make test-race`): concurrent solves over shared read-only modules,
// shared pre-generated constraint problems, and shared cached solutions.
// Queries on a Solution must be strictly read-only for these tests to pass
// under the race detector — which is why core.Solution carries a flattened
// representative table instead of a live (path-compressing) union-find.

import (
	"sync"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/workload"
)

var raceWorkerCounts = []int{1, 2, 8}

// TestRaceSharedModules solves the same modules concurrently: many jobs
// share one *ir.Module, so any write to module state during constraint
// generation is a detectable race.
func TestRaceSharedModules(t *testing.T) {
	mods := testModules(4)
	for _, workers := range raceWorkerCounts {
		var jobs []Job
		for _, cfgName := range diffConfigs {
			cfg := core.MustParseConfig(cfgName)
			for _, m := range mods {
				jobs = append(jobs, Job{Module: m, Config: cfg})
			}
		}
		for i, r := range New(Options{Workers: workers}).Run(jobs) {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
	}
}

// TestRaceSharedGen shares one pre-generated *core.Gen across concurrent
// solves under different configurations, the exact sharing pattern of the
// benchmark drivers (phase 1 is hoisted out, phase 2 fans out).
func TestRaceSharedGen(t *testing.T) {
	gens := make([]*core.Gen, 0)
	for _, m := range testModules(3) {
		gens = append(gens, core.Generate(m))
	}
	for _, workers := range raceWorkerCounts {
		var jobs []Job
		for _, cfgName := range diffConfigs {
			cfg := core.MustParseConfig(cfgName)
			for _, g := range gens {
				// Several reps so solves on the shared problem overlap.
				jobs = append(jobs, Job{Gen: g, Config: cfg, Reps: 2})
			}
		}
		for i, r := range New(Options{Workers: workers}).Run(jobs) {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
	}
}

// TestRaceSharedCachedSolution queries one cache-shared Solution from many
// goroutines at once. Every query path (PointsTo, Explicit, Escaped,
// ExternalSet, MayShareTargets, Canonical, Fingerprint) must be read-only.
func TestRaceSharedCachedSolution(t *testing.T) {
	m := workload.GenerateLinked(3).A
	eng := New(Options{Workers: 8, Cache: true})
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Module: m, Config: core.DefaultConfig()}
	}
	rs := eng.Run(jobs)
	sol := rs[0].Sol
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := core.VarID(sol.NumVars())
			for v := core.VarID(0); v < n; v++ {
				sol.PointsTo(v)
				sol.Explicit(v)
				sol.PointsToExternal(v)
				sol.Escaped(v)
				sol.Rep(v)
				sol.MayShareTargets(v, (v+core.VarID(w))%n)
			}
			sol.ExternalSet()
			_ = sol.Fingerprint()
			_ = sol.Canonical()
		}(w)
	}
	wg.Wait()
	// All 16 identical jobs must have shared one solution (one solve, the
	// rest cache hits — modulo concurrent first-pass duplicates).
	hits := eng.Stats().CacheHits
	if hits == 0 {
		t.Fatal("no cache hits on identical concurrent jobs")
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}

// TestRaceServeLikeLifecycle mixes the daemon's concurrent access pattern:
// RunOne from many request goroutines against one shared caching engine,
// interleaved with Stats scrapes (which read cache occupancy and the open
// busy span) — the /metrics-while-solving pattern.
func TestRaceServeLikeLifecycle(t *testing.T) {
	mods := testModules(4)
	eng := New(Options{Workers: 4, Cache: true, CacheEntries: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				m := mods[(w+n)%len(mods)]
				if r := eng.RunOne(Job{Module: m, Config: core.DefaultConfig()}); r.Err != nil {
					t.Errorf("worker %d: %v", w, r.Err)
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				st := eng.Stats()
				if st.CacheEntries > 2 {
					t.Errorf("occupancy %d exceeds cap", st.CacheEntries)
				}
			}
		}()
	}
	wg.Wait()
}
