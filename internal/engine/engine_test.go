package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// testModules returns a deterministic set of small incomplete modules.
func testModules(n int) []*ir.Module {
	mods := make([]*ir.Module, 0, n)
	for seed := int64(1); len(mods) < n; seed++ {
		mods = append(mods, workload.GenerateLinked(seed).A)
	}
	return mods
}

func jobsFor(mods []*ir.Module, cfg core.Config) []Job {
	jobs := make([]Job, len(mods))
	for i, m := range mods {
		jobs[i] = Job{Module: m, Config: cfg}
	}
	return jobs
}

func TestRunMatchesDirectSolve(t *testing.T) {
	mods := testModules(12)
	cfg := core.DefaultConfig()
	eng := New(Options{Workers: 4})
	rs := eng.Run(jobsFor(mods, cfg))
	if len(rs) != len(mods) {
		t.Fatalf("got %d results for %d jobs", len(rs), len(mods))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		gen := core.Generate(mods[i])
		want := core.MustSolve(gen.Problem, cfg)
		if got, wantFP := r.Sol.Fingerprint(), want.Fingerprint(); got != wantFP {
			t.Fatalf("job %d: engine solution differs from direct solve:\n%s", i, firstDiff(wantFP, got))
		}
		if r.Duration <= 0 {
			t.Fatalf("job %d: non-positive duration", i)
		}
	}
	st := eng.Stats()
	if st.Jobs != len(mods) || st.Failures != 0 || st.CacheHits != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Wall <= 0 || st.CPU <= 0 {
		t.Fatalf("stats missing timings: %+v", st)
	}
	if st.PeakInFlight < 1 || st.PeakInFlight > 4 {
		t.Fatalf("peak in-flight out of range: %d", st.PeakInFlight)
	}
}

func TestCacheSecondPassHits(t *testing.T) {
	mods := testModules(6)
	cfg := core.DefaultConfig()
	eng := New(Options{Workers: 3, Cache: true})
	first := eng.Run(jobsFor(mods, cfg))
	second := eng.Run(jobsFor(mods, cfg))
	for i := range mods {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, first[i].Err, second[i].Err)
		}
		if first[i].CacheHit {
			t.Fatalf("job %d: unexpected cache hit on first pass", i)
		}
		if !second[i].CacheHit {
			t.Fatalf("job %d: expected cache hit on second pass", i)
		}
		if first[i].Sol.Fingerprint() != second[i].Sol.Fingerprint() {
			t.Fatalf("job %d: cached solution differs", i)
		}
	}
	st := eng.Stats()
	if st.CacheHits != len(mods) {
		t.Fatalf("expected %d cache hits, got %d", len(mods), st.CacheHits)
	}
	// Distinct configurations must not share cache entries.
	other := core.MustParseConfig("EP+WL(FIFO)")
	for i, r := range eng.Run(jobsFor(mods, other)) {
		if r.CacheHit {
			t.Fatalf("job %d: cache hit across configurations", i)
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}

func TestPanicBecomesJobFailure(t *testing.T) {
	mods := testModules(3)
	// Corrupt the middle module: a load whose pointer operand is nil makes
	// constraint generation crash.
	broken := false
	mods[1].ForEachInstr(func(_ *ir.Function, _ *ir.Block, in *ir.Instr) {
		if !broken && in.Op == ir.OpLoad {
			in.Args[0] = nil
			broken = true
		}
	})
	if !broken {
		t.Skip("no load instruction to corrupt")
	}
	eng := New(Options{Workers: 2})
	rs := eng.Run(jobsFor(mods, core.DefaultConfig()))
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", rs[0].Err, rs[2].Err)
	}
	if rs[1].Err == nil {
		t.Fatal("corrupted job did not fail")
	}
	if !strings.Contains(rs[1].Err.Error(), "panicked") {
		t.Fatalf("failure does not report the panic: %v", rs[1].Err)
	}
	if st := eng.Stats(); st.Failures != 1 {
		t.Fatalf("expected 1 failure, got %+v", st)
	}
}

func TestEmptyAndInvalidJobs(t *testing.T) {
	eng := New(Options{Workers: 2})
	if rs := eng.Run(nil); len(rs) != 0 {
		t.Fatalf("empty run returned %d results", len(rs))
	}
	rs := eng.Run([]Job{{Config: core.DefaultConfig()}})
	if rs[0].Err == nil {
		t.Fatal("job without Module or Gen must fail")
	}
}

func TestRepsKeepFastestDuration(t *testing.T) {
	m := testModules(1)[0]
	eng := New(Options{Workers: 1})
	r := eng.RunOne(Job{Module: m, Config: core.DefaultConfig(), Reps: 3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Duration <= 0 {
		t.Fatal("reps run lost its duration")
	}
	// The kept duration is the minimum across reps, so it can never exceed
	// the first solution's recorded duration.
	if r.Duration > r.Sol.Stats.Duration {
		t.Fatalf("duration %v exceeds first-solve duration %v", r.Duration, r.Sol.Stats.Duration)
	}
}

// TestRunOneCountsWall: RunOne must contribute to Stats.Wall exactly like
// Run — the original implementation only accumulated wall time in Run, so
// a service built on RunOne would report zero busy time forever.
func TestRunOneCountsWall(t *testing.T) {
	m := testModules(1)[0]
	eng := New(Options{Workers: 1})
	if r := eng.RunOne(Job{Module: m, Config: core.DefaultConfig()}); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := eng.Stats()
	if st.Wall <= 0 {
		t.Fatalf("RunOne left Stats.Wall at %v", st.Wall)
	}
	if st.Wall < st.CPU {
		t.Fatalf("single sequential job: wall %v < cpu %v", st.Wall, st.CPU)
	}
}

// TestOverlappingRunsWallNotDoubleCounted: wall time is a busy span (first
// job in → last job out), so N overlapping Run calls must accumulate at
// most the enclosing elapsed time, not N times it.
func TestOverlappingRunsWallNotDoubleCounted(t *testing.T) {
	mods := testModules(6)
	eng := New(Options{Workers: 4})
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range eng.Run(jobsFor(mods, core.DefaultConfig())) {
				if r.Err != nil {
					t.Errorf("job %d: %v", i, r.Err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := eng.Stats()
	if st.Wall <= 0 {
		t.Fatal("no wall time recorded")
	}
	// Busy spans are disjoint sub-intervals of [start, start+elapsed], so
	// their sum cannot exceed the enclosing elapsed time. Under the old
	// per-Run accounting this could reach 3x elapsed.
	if st.Wall > elapsed {
		t.Fatalf("wall %v exceeds enclosing elapsed %v: overlap double-counted", st.Wall, elapsed)
	}
}

// TestLiveStatsIncludeOpenBusySpan: a snapshot taken mid-run (what a
// /metrics scrape does) must include the elapsed part of the open busy
// span instead of freezing at the last idle point.
func TestLiveStatsIncludeOpenBusySpan(t *testing.T) {
	eng := New(Options{Workers: 1})
	eng.noteStart()
	time.Sleep(5 * time.Millisecond)
	if st := eng.Stats(); st.Wall < 4*time.Millisecond {
		t.Fatalf("mid-run snapshot wall %v, want the open span included", st.Wall)
	}
	eng.noteDone(Result{})
	base := eng.Stats().Wall
	if base < 4*time.Millisecond {
		t.Fatalf("closed span lost: wall %v", base)
	}
	if again := eng.Stats().Wall; again != base {
		t.Fatalf("idle engine wall drifted: %v -> %v", base, again)
	}
}

func TestModuleHashDistinguishesContent(t *testing.T) {
	mods := testModules(2)
	h0, h1 := ModuleHash(mods[0]), ModuleHash(mods[1])
	if h0 == h1 {
		t.Fatal("distinct modules hash equal")
	}
	if h0 != ModuleHash(mods[0]) {
		t.Fatal("hash not deterministic")
	}
	cfg := core.DefaultConfig()
	if CacheKey(h0, cfg) == CacheKey(h1, cfg) {
		t.Fatal("cache keys collide")
	}
}

// TestModuleHashAllocsPerModule pins that hashing allocates per module,
// not per instruction: with every function body doubled, ModuleHash
// allocates no more than for the original module.
func TestModuleHashAllocsPerModule(t *testing.T) {
	m := testModules(1)[0]
	base := testing.AllocsPerRun(10, func() { ModuleHash(m) })
	instrs := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Instrs = append(b.Instrs, b.Instrs...)
			instrs += len(b.Instrs)
		}
	}
	if instrs == 0 {
		t.Fatal("test module has no instructions")
	}
	if doubled := testing.AllocsPerRun(10, func() { ModuleHash(m) }); doubled > base {
		t.Fatalf("ModuleHash allocates %v times with bodies doubled (%d instructions), %v without", doubled, instrs, base)
	}
}
