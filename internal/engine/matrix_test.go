package engine

import (
	"strings"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/workload"
)

// The cross-configuration differential matrix: every valid configuration,
// solved over the adversarial workload modules, must produce the same
// solution (the paper validates its configuration space exactly this way),
// and every configuration's canonical name must round-trip through
// ParseConfig — the matrix uses the names as job identities, so a name
// collision or parse drift would silently merge distinct configurations.

// matrixSeeds picks the adversarial modules the matrix runs over. -short
// keeps one seed so the 304-configuration sweep stays fast in CI.
func matrixSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

func TestCrossConfigurationMatrix(t *testing.T) {
	configs := core.AllConfigs()
	// Name round trip first: the rest of the test keys jobs by name.
	seen := map[string]bool{}
	for _, cfg := range configs {
		name := cfg.String()
		if seen[name] {
			t.Fatalf("duplicate configuration name %q", name)
		}
		seen[name] = true
		parsed, err := core.ParseConfig(name)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", name, err)
		}
		if parsed != cfg {
			t.Fatalf("configuration round trip: %q -> %+v, want %+v", name, parsed, cfg)
		}
	}

	eng := New(Options{})
	for _, seed := range matrixSeeds(t) {
		lm := workload.GenerateLinked(seed)
		for _, mod := range []struct {
			name string
			gen  *core.Gen
		}{
			{"A", core.Generate(lm.A)},
			{"whole", core.Generate(lm.Whole)},
		} {
			want := core.ReferenceSolve(mod.gen.Problem)
			jobs := make([]Job, len(configs))
			for i, cfg := range configs {
				jobs[i] = Job{Gen: mod.gen, Config: cfg}
			}
			for i, r := range eng.Run(jobs) {
				if r.Err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, mod.name, configs[i], r.Err)
				}
				if r.Degraded {
					t.Fatalf("seed %d %s %s: unbudgeted solve degraded", seed, mod.name, configs[i])
				}
				if got := r.Sol.Canonical(); got != want {
					t.Fatalf("seed %d %s: configuration %s disagrees with the reference solution",
						seed, mod.name, configs[i])
				}
			}
		}
	}
}

// TestMatrixDifferential pushes a per-configuration job set through the
// differential harness: within each configuration, the sequential path,
// every pool size, and the cached double pass must be solution-identical.
// (Across configurations only Canonical agrees — cycle representatives and
// explicit sets legitimately differ — so fingerprint comparison stays
// within one configuration.)
func TestMatrixDifferential(t *testing.T) {
	configs := core.AllConfigs()
	stride := 16
	if testing.Short() {
		stride = 64
	}
	m := workload.GenerateLinked(4).A
	var jobs []Job
	for i := 0; i < len(configs); i += stride {
		jobs = append(jobs, Job{Module: m, Config: configs[i]})
	}
	rep := Differential(jobs, DiffOptions{WorkerCounts: []int{1, 4}, CachedPass: true})
	if !rep.OK() {
		t.Fatalf("differential mismatches:\n%s", rep)
	}
}

// TestBudgetedDifferential: firing budgets are deterministic, so budgeted
// jobs — including ones that always degrade — are differential-safe across
// every engine path. Degraded solutions must not be cached; completed
// budgeted solves still are.
func TestBudgetedDifferential(t *testing.T) {
	m := workload.GenerateLinked(5).A
	degrading := core.DefaultConfig()
	degrading.Budget = core.Budget{Firings: 3}
	generous := core.MustParseConfig("EP+WL(FIFO)")
	generous.Budget = core.Budget{Firings: 1 << 40}
	jobs := []Job{
		{Module: m, Config: degrading},
		{Module: m, Config: generous},
		{Module: m, Config: core.DefaultConfig()},
	}
	rep := Differential(jobs, DiffOptions{WorkerCounts: []int{1, 4}, CachedPass: true})
	if !rep.OK() {
		t.Fatalf("budgeted differential mismatches:\n%s", rep)
	}

	eng := New(Options{Cache: true})
	first := eng.Run(jobs)
	if !first[0].Degraded {
		t.Fatal("3-firing job did not degrade")
	}
	if first[1].Degraded || first[2].Degraded {
		t.Fatal("generous/unbudgeted jobs degraded")
	}
	second := eng.Run(jobs)
	if second[0].CacheHit {
		t.Fatal("degraded solution was served from the cache")
	}
	if !second[1].CacheHit || !second[2].CacheHit {
		t.Fatal("completed solutions were not cached")
	}
	st := eng.Stats()
	if st.Degraded != 2 { // job 0 degraded on both passes
		t.Fatalf("Stats.Degraded = %d, want 2", st.Degraded)
	}
	if !st.Telemetry.Degraded {
		t.Fatal("aggregated telemetry lost the degraded bit")
	}
}

// TestBudgetCacheKeySeparation: a budgeted and an unbudgeted job over the
// same module must never share a cached solution, and the engine-level
// default budget must be folded in before the key is derived.
func TestBudgetCacheKeySeparation(t *testing.T) {
	m := workload.GenerateLinked(6).A
	budgeted := core.DefaultConfig()
	budgeted.Budget = core.Budget{Firings: 1 << 40}
	if CacheKey("h", core.DefaultConfig()) == CacheKey("h", budgeted) {
		t.Fatal("budget not part of the cache key")
	}

	// An engine-wide default budget that always degrades: even with the
	// cache on, an unbudgeted engine afterwards must not see those entries.
	strict := New(Options{Cache: true, Budget: core.Budget{Firings: -1}})
	r := strict.RunOne(Job{Module: m, Config: core.DefaultConfig()})
	if r.Err != nil || !r.Degraded {
		t.Fatalf("strict engine: err=%v degraded=%v", r.Err, r.Degraded)
	}
	// Same engine, job with its own generous budget overriding nothing
	// (job budget zero -> default applies): still degraded.
	r2 := strict.RunOne(Job{Module: m, Config: core.DefaultConfig()})
	if !r2.Degraded || r2.CacheHit {
		t.Fatalf("second strict run: degraded=%v cacheHit=%v", r2.Degraded, r2.CacheHit)
	}
	// A job carrying its own budget wins over the engine default.
	own := core.DefaultConfig()
	own.Budget = core.Budget{Firings: 1 << 40}
	r3 := strict.RunOne(Job{Module: m, Config: own})
	if r3.Err != nil || r3.Degraded {
		t.Fatalf("own-budget job: err=%v degraded=%v", r3.Err, r3.Degraded)
	}
}

// TestEngineStatsExport covers the JSON telemetry export: the aggregated
// stats marshal with the telemetry schema.
func TestEngineStatsExport(t *testing.T) {
	m := workload.GenerateLinked(7).A
	eng := New(Options{})
	if r := eng.RunOne(Job{Module: m, Config: core.DefaultConfig()}); r.Err != nil {
		t.Fatal(r.Err)
	}
	js := eng.Stats().JSON()
	for _, key := range []string{"\"jobs\"", "\"degraded\"", "\"telemetry\"",
		"\"offline_ns\"", "\"propagate_ns\"", "\"collapse_ns\"", "\"firings\"", "\"worklist_peak\""} {
		if !strings.Contains(js, key) {
			t.Fatalf("stats JSON lacks %s:\n%s", key, js)
		}
	}

}

// TestStatsMerge covers the cross-engine aggregation used by the bench
// corpus drivers.
func TestStatsMerge(t *testing.T) {
	a := Stats{Jobs: 1, CacheHits: 2, Failures: 3, Degraded: 4, Wall: 10, CPU: 20,
		PeakInFlight: 2, Workers: 4, Telemetry: core.Telemetry{WorklistPeak: 5}}
	b := Stats{Jobs: 10, Degraded: 1, Wall: 1, CPU: 2, PeakInFlight: 7, Workers: 2,
		Telemetry: core.Telemetry{WorklistPeak: 3, Degraded: true}}
	a.Merge(b)
	if a.Jobs != 11 || a.CacheHits != 2 || a.Failures != 3 || a.Degraded != 5 {
		t.Fatalf("counters: %+v", a)
	}
	if a.Wall != 11 || a.CPU != 22 || a.PeakInFlight != 7 || a.Workers != 4 {
		t.Fatalf("times/peaks: %+v", a)
	}
	if a.Telemetry.WorklistPeak != 5 || !a.Telemetry.Degraded {
		t.Fatalf("telemetry: %+v", a.Telemetry)
	}
}
