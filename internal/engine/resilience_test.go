package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/faults"
)

// armFaults arms a fault spec for the duration of one test. The faults
// registry is process-global, so every armed test must disarm on exit or
// it would bleed injections into later tests.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	reg, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("bad fault spec %q: %v", spec, err)
	}
	faults.Arm(reg)
	t.Cleanup(faults.Disarm)
}

func TestRetryRecoversInjectedError(t *testing.T) {
	// The dispatch point errors exactly on its first hit; the retry's
	// second attempt sees hit #2 and sails through.
	armFaults(t, "seed=1;engine.dispatch=error:@1")
	mods := testModules(1)
	eng := New(Options{Workers: 1, Retry: RetryPolicy{Max: 2, BaseDelay: time.Millisecond}})
	res := eng.RunOne(Job{Module: mods[0], Config: core.DefaultConfig()})
	if res.Err != nil {
		t.Fatalf("job not recovered by retry: %v", res.Err)
	}
	if res.Retries != 1 {
		t.Fatalf("expected 1 retry, got %d", res.Retries)
	}
	want := core.MustSolve(core.Generate(mods[0]).Problem, core.DefaultConfig())
	if res.Sol.Fingerprint() != want.Fingerprint() {
		t.Fatalf("retried solution differs from direct solve")
	}
	st := eng.Stats()
	if st.Retries != 1 || st.RetrySuccesses != 1 || st.Failures != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryRecoversPanic(t *testing.T) {
	armFaults(t, "seed=1;engine.dispatch=panic:@1")
	mods := testModules(1)
	eng := New(Options{Workers: 1, Retry: RetryPolicy{Max: 2, BaseDelay: time.Millisecond}})
	res := eng.RunOne(Job{Module: mods[0], Config: core.DefaultConfig()})
	if res.Err != nil {
		t.Fatalf("panicked job not recovered by retry: %v", res.Err)
	}
	if res.Retries != 1 {
		t.Fatalf("expected 1 retry, got %d", res.Retries)
	}
}

func TestNoRetryWhenDisabled(t *testing.T) {
	armFaults(t, "seed=1;engine.dispatch=error:@1")
	mods := testModules(1)
	eng := New(Options{Workers: 1})
	res := eng.RunOne(Job{Module: mods[0], Config: core.DefaultConfig()})
	if res.Err == nil {
		t.Fatal("expected the injected error to surface with retry disabled")
	}
	if !faults.IsFault(res.Err) {
		t.Fatalf("error lost its fault identity: %v", res.Err)
	}
	if st := eng.Stats(); st.Retries != 0 || st.Failures != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestDegradedResultNotRetried(t *testing.T) {
	// A one-firing budget degrades every solve to Ω. That is a success
	// carrying a sound answer — the retry layer must not re-solve it.
	mods := testModules(1)
	cfg := core.DefaultConfig()
	cfg.Budget = core.Budget{Firings: 1}
	eng := New(Options{Workers: 1, Retry: RetryPolicy{Max: 3, BaseDelay: time.Millisecond}})
	res := eng.RunOne(Job{Module: mods[0], Config: cfg})
	if res.Err != nil {
		t.Fatalf("budgeted solve failed: %v", res.Err)
	}
	if !res.Degraded {
		t.Fatal("expected a degraded result under a one-firing budget")
	}
	if res.Retries != 0 {
		t.Fatalf("degraded result was retried %d times", res.Retries)
	}
	if st := eng.Stats(); st.Retries != 0 {
		t.Fatalf("unexpected retries in stats: %+v", st)
	}
}

func TestPanicMessageFormatPreserved(t *testing.T) {
	armFaults(t, "seed=1;engine.dispatch=panic:1")
	mods := testModules(1)
	eng := New(Options{Workers: 1})
	res := eng.RunOne(Job{Module: mods[0], Config: core.DefaultConfig()})
	if res.Err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	if !strings.HasPrefix(res.Err.Error(), "engine: job panicked: ") {
		t.Fatalf("recovered panic lost its report format: %v", res.Err)
	}
}

func TestWatchdogForcesDegradation(t *testing.T) {
	// The solve sleeps 2s at the core.solve point while its wall deadline
	// is 10ms; the watchdog fires at 3×10ms and answers with the sound
	// Ω-degradation instead of waiting the sleep out. Demand jobs run
	// under the same watchdog as exhaustive ones.
	for _, tc := range []struct {
		name   string
		demand []core.VarID
	}{
		{name: "Exhaustive"},
		{name: "Demand", demand: []core.VarID{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			armFaults(t, "seed=1;core.solve=latency:1:2s")
			mods := testModules(1)
			cfg := core.DefaultConfig()
			cfg.Budget = core.Budget{Deadline: 10 * time.Millisecond}
			eng := New(Options{Workers: 1, WatchdogFactor: 3})
			start := time.Now()
			res := eng.RunOne(Job{Module: mods[0], Config: cfg, Demand: tc.demand})
			if res.Err != nil {
				t.Fatalf("watchdog path returned error: %v", res.Err)
			}
			if !res.Degraded || !res.Sol.Degraded {
				t.Fatal("watchdog answer must be the degraded (sound Ω) solution")
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("watchdog did not cut the solve short: took %v", elapsed)
			}
			if st := eng.Stats(); st.WatchdogFired != 1 {
				t.Fatalf("expected WatchdogFired=1, got %+v", st)
			}
			if tc.demand != nil && (res.DemandStats == nil || res.DemandStats.ExploredVars != 0) {
				t.Fatalf("watchdog demand answer must report an empty slice, got %+v", res.DemandStats)
			}
		})
	}
}

func TestMemGuardTightensBudget(t *testing.T) {
	// A 1-byte soft limit is always exceeded, so every job is switched to
	// the tight budget; one firing degrades the solve to Ω.
	mods := testModules(2)
	eng := New(Options{
		Workers:      1,
		MemSoftLimit: 1,
		TightBudget:  core.Budget{Firings: 1},
	})
	for i, m := range mods {
		res := eng.RunOne(Job{Module: m, Config: core.DefaultConfig()})
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if !res.Degraded {
			t.Fatalf("job %d: tight one-firing budget should degrade the solve", i)
		}
	}
	if st := eng.Stats(); st.MemTightened != int64(len(mods)) {
		t.Fatalf("expected MemTightened=%d, got %+v", len(mods), st)
	}
}

// TestReservationReleasedOnPanic is the regression test for the leaked
// cache reservation: a job that panics after becoming the leader for a
// cache key must still release the reservation, or every later job with
// the same key blocks forever waiting on a leader that no longer exists.
func TestReservationReleasedOnPanic(t *testing.T) {
	// The cache-insert point panics on its first hit only — after the
	// leader has acquired the reservation and solved.
	armFaults(t, "seed=1;engine.cache.insert=panic:@1")
	mods := testModules(1)
	eng := New(Options{Workers: 1, Cache: true})
	job := Job{Module: mods[0], Config: core.DefaultConfig()}
	first := eng.RunOne(job)
	if first.Err == nil {
		t.Fatal("expected the first job to fail from the injected panic")
	}
	done := make(chan Result, 1)
	go func() { done <- eng.RunOne(job) }()
	select {
	case second := <-done:
		if second.Err != nil {
			t.Fatalf("second job failed: %v", second.Err)
		}
		if second.CacheHit {
			t.Fatal("second job cannot hit the cache: the panicked leader never stored")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second job deadlocked: the panicked leader leaked its reservation")
	}
}

func TestCorruptCacheEntryNotServed(t *testing.T) {
	// Every insert flips the stored content hash, so every later lookup
	// must detect the mismatch, drop the entry, and re-solve.
	armFaults(t, "seed=1;engine.cache.insert=flip:1")
	mods := testModules(1)
	eng := New(Options{Workers: 1, Cache: true})
	job := Job{Module: mods[0], Config: core.DefaultConfig()}
	first := eng.RunOne(job)
	if first.Err != nil {
		t.Fatalf("first solve failed: %v", first.Err)
	}
	second := eng.RunOne(job)
	if second.Err != nil {
		t.Fatalf("re-solve after corruption failed: %v", second.Err)
	}
	if second.CacheHit {
		t.Fatal("corrupted cache entry was served as a hit")
	}
	if first.Sol.Fingerprint() != second.Sol.Fingerprint() {
		t.Fatal("re-solved solution differs from the original")
	}
	if st := eng.Stats(); st.CacheCorrupt < 1 {
		t.Fatalf("corruption went uncounted: %+v", st)
	}
}

func TestCacheIntactWhenArmedButNotFlipping(t *testing.T) {
	// Armed faults record content hashes on insert; with no flip rule the
	// hashes must verify and the second pass still hits.
	armFaults(t, "seed=1;core.wave=error:0")
	mods := testModules(1)
	eng := New(Options{Workers: 1, Cache: true})
	job := Job{Module: mods[0], Config: core.DefaultConfig()}
	if res := eng.RunOne(job); res.Err != nil {
		t.Fatalf("first solve failed: %v", res.Err)
	}
	second := eng.RunOne(job)
	if second.Err != nil {
		t.Fatalf("second solve failed: %v", second.Err)
	}
	if !second.CacheHit {
		t.Fatal("verified entry should still be served as a cache hit")
	}
	if st := eng.Stats(); st.CacheCorrupt != 0 {
		t.Fatalf("spurious corruption detections: %+v", st)
	}
}

func TestCoalescingSharesExactSolution(t *testing.T) {
	// The leader's solve sleeps 400ms, giving the waiters (started after
	// a short head start) time to queue behind its reservation instead of
	// solving redundantly.
	armFaults(t, "seed=1;core.solve=latency:1:400ms")
	mods := testModules(1)
	eng := New(Options{Workers: 8, Cache: true})
	job := Job{Module: mods[0], Config: core.DefaultConfig()}

	const waiters = 5
	results := make([]Result, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = eng.RunOne(job)
	}()
	time.Sleep(50 * time.Millisecond)
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.RunOne(job)
		}(i)
	}
	wg.Wait()

	solves := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if !r.CacheHit {
			solves++
		}
		if r.Sol.Fingerprint() != results[0].Sol.Fingerprint() {
			t.Fatalf("job %d: coalesced solution differs", i)
		}
	}
	if solves != 1 {
		t.Fatalf("expected exactly 1 real solve, got %d", solves)
	}
	st := eng.Stats()
	if st.Coalesced != waiters {
		t.Fatalf("expected %d coalesced jobs, got %+v", waiters, st)
	}
	if st.CacheHits != waiters {
		t.Fatalf("coalesced jobs must count as cache hits: %+v", st)
	}
}

func TestDegradedLeaderNotSharedWithWaiters(t *testing.T) {
	// Every solve degrades under a one-firing budget. Waiters must not be
	// handed the leader's degraded solution as a cache hit — each solves
	// for itself (and gets its own sound degradation).
	mods := testModules(1)
	cfg := core.DefaultConfig()
	cfg.Budget = core.Budget{Firings: 1}
	eng := New(Options{Workers: 4, Cache: true})
	job := Job{Module: mods[0], Config: cfg}
	var wg sync.WaitGroup
	results := make([]Result, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.RunOne(job)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if !r.Degraded {
			t.Fatalf("job %d: expected degradation under one-firing budget", i)
		}
		if r.CacheHit {
			t.Fatalf("job %d: degraded solution must never be served from cache", i)
		}
	}
}

func TestBackoffBoundedAndGrowing(t *testing.T) {
	rp := RetryPolicy{BaseDelay: 4 * time.Millisecond, MaxDelay: 32 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		d := rp.backoff(attempt)
		full := 4 * time.Millisecond << (attempt - 1)
		if full > rp.MaxDelay {
			full = rp.MaxDelay
		}
		if d < full/2 || d > full {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
}
