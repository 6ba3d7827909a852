package engine

import (
	"testing"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/ir"
)

// TestRunTextRawHit: a repeated text is answered from the raw-text index
// without parsing, with the entry the parse path answers from; a
// canonically equal variant of the text parses once, hits the same
// entry, and is indexed under its own raw key from then on.
func TestRunTextRawHit(t *testing.T) {
	text := ir.Print(testModules(1)[0])
	cfg := core.DefaultConfig()
	eng := New(Options{Workers: 1, Cache: true, CacheEntries: 8})
	run := func(src string) Result {
		t.Helper()
		res, err := eng.RunText(src, Job{Config: cfg})
		if err != nil || res.Err != nil {
			t.Fatalf("RunText: %v / %v", err, res.Err)
		}
		return res
	}
	first := run(text)
	if first.CacheHit || first.RawHit {
		t.Fatalf("first request: CacheHit=%v RawHit=%v, want a solve", first.CacheHit, first.RawHit)
	}
	second := run(text)
	if !second.CacheHit || !second.RawHit {
		t.Fatalf("repeat: CacheHit=%v RawHit=%v, want a raw hit", second.CacheHit, second.RawHit)
	}
	variant := "\n" + text + "\n\n"
	third := run(variant)
	if !third.CacheHit || third.RawHit {
		t.Fatalf("variant: CacheHit=%v RawHit=%v, want a parse-path memory hit", third.CacheHit, third.RawHit)
	}
	if fourth := run(variant); !fourth.RawHit {
		t.Fatal("repeated variant was not indexed")
	}
	for _, r := range []Result{second, third} {
		if r.Sol != first.Sol || r.Gen != first.Gen {
			t.Fatal("hits did not share the resident entry")
		}
	}
	st := eng.Stats()
	if st.Jobs != 4 || st.CacheHits != 3 || st.RawHits != 2 {
		t.Fatalf("stats jobs=%d hits=%d raw=%d, want 4/3/2", st.Jobs, st.CacheHits, st.RawHits)
	}
}

// TestRunTextParseErrorNeverIndexed: a text that does not parse comes
// back as the caller's error every time; it is no job and leaves no raw
// key behind.
func TestRunTextParseErrorNeverIndexed(t *testing.T) {
	eng := New(Options{Workers: 1, Cache: true, CacheEntries: 8})
	for i := 0; i < 2; i++ {
		res, err := eng.RunText("define ptr @f( {", Job{Config: core.DefaultConfig()})
		if err == nil || res.Err != nil || res.Sol != nil {
			t.Fatalf("attempt %d: err=%v res.Err=%v, want a parse error only", i, err, res.Err)
		}
	}
	if st := eng.Stats(); st.Jobs != 0 || st.Failures != 0 {
		t.Fatalf("parse errors counted as jobs: %+v", st)
	}
	if n := len(eng.cache.raw); n != 0 {
		t.Fatalf("%d raw keys indexed for an unparsable text", n)
	}
}

// TestRunTextConfigNeverShares: the raw key covers the effective
// configuration, default budget folded in, so neither a different
// configuration nor a different budget hits another's entry.
func TestRunTextConfigNeverShares(t *testing.T) {
	text := ir.Print(testModules(1)[0])
	eng := New(Options{Workers: 1, Cache: true, CacheEntries: 8, Budget: core.Budget{Firings: 1 << 30}})
	cfgs := []core.Config{core.DefaultConfig(), core.MustParseConfig("IP+WL(FIFO)")}
	tight := core.DefaultConfig()
	tight.Budget = core.Budget{Firings: 1 << 29}
	cfgs = append(cfgs, tight)
	for _, cfg := range cfgs {
		res, err := eng.RunText(text, Job{Config: cfg})
		if err != nil || res.Err != nil {
			t.Fatalf("%v: %v / %v", cfg, err, res.Err)
		}
		if res.CacheHit {
			t.Fatalf("%v: hit an entry of another configuration", cfg)
		}
	}
	// The folded default budget is part of the key: the first
	// configuration, re-sent, hits raw.
	if res, _ := eng.RunText(text, Job{Config: cfgs[0]}); !res.RawHit {
		t.Fatal("identical request under the folded default budget missed")
	}
}

// TestRunTextEvictionDropsRawKeys: an evicted entry takes its raw keys
// with it, so the next request for its text parses and comes back as a
// disk hit.
func TestRunTextEvictionDropsRawKeys(t *testing.T) {
	mods := testModules(2)
	a, b := ir.Print(mods[0]), ir.Print(mods[1])
	cfg := core.DefaultConfig()
	eng := engineWithStore(t, t.TempDir(), 1)
	for _, text := range []string{a, a, b} {
		if _, err := eng.RunText(text, Job{Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(eng.cache.raw); n != 1 {
		t.Fatalf("%d raw keys after evicting a, want b's one", n)
	}
	res, err := eng.RunText(a, Job{Config: cfg})
	if err != nil || res.Err != nil {
		t.Fatalf("RunText: %v / %v", err, res.Err)
	}
	if res.RawHit || !res.DiskHit {
		t.Fatalf("after eviction: RawHit=%v DiskHit=%v, want a parsed disk hit", res.RawHit, res.DiskHit)
	}
	if res, _ := eng.RunText(a, Job{Config: cfg}); !res.RawHit {
		t.Fatal("disk hit was not indexed on promotion")
	}
}

// TestRunTextLookupFaultFallsBack: an injected lookup fault skips the
// raw index and the canonical lookup alike; the job parses, solves and
// answers exactly. Each engine fault point is evaluated once per job on
// either path.
func TestRunTextLookupFaultFallsBack(t *testing.T) {
	m := testModules(1)[0]
	text := ir.Print(m)
	cfg := core.DefaultConfig()
	want := core.MustSolve(core.Generate(m).Problem, cfg).Fingerprint()
	armFaults(t, "seed=1;engine.dispatch=error:@1000;engine.cache.lookup=error:@3")
	reg := faults.Active()
	eng := New(Options{Workers: 1, Cache: true, CacheEntries: 8})
	for i, wantRaw := range []bool{false, true, false, true} {
		res, err := eng.RunText(text, Job{Config: cfg})
		if err != nil || res.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, res.Err)
		}
		if res.RawHit != wantRaw {
			t.Fatalf("request %d: RawHit=%v, want %v", i, res.RawHit, wantRaw)
		}
		if res.Sol.Fingerprint() != want {
			t.Fatalf("request %d: answer differs from a direct solve", i)
		}
		for _, p := range []faults.Point{faults.EngineDispatch, faults.EngineCacheLook} {
			if n := reg.Hits(p); n != uint64(i+1) {
				t.Fatalf("request %d: %s evaluated %d times in total, want %d", i, p, n, i+1)
			}
		}
	}
	// Request 2 met the fault and solved without consulting either tier.
	if st := eng.Stats(); st.CacheHits != 2 || st.RawHits != 2 {
		t.Fatalf("hits=%d raw=%d, want 2/2", st.CacheHits, st.RawHits)
	}
}

// TestEvictionFlushVisibleUntilSaved holds a write-behind between the
// eviction and its Save: a lookup of the evicted key in that gap must be
// answered from the entry in flight, not miss both tiers and re-solve.
func TestEvictionFlushVisibleUntilSaved(t *testing.T) {
	mods := testModules(2)
	cfg := core.DefaultConfig()
	eng := engineWithStore(t, t.TempDir(), 1)
	if res := eng.RunOne(Job{Module: mods[0], Config: cfg}); res.Err != nil {
		t.Fatal(res.Err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	eng.flushHold = func() {
		close(held)
		<-release
	}
	done := make(chan Result)
	go func() { done <- eng.RunOne(Job{Module: mods[1], Config: cfg}) }() // evicts mods[0]
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("inserting a second entry evicted nothing")
	}
	eng.flushHold = nil
	res := eng.RunOne(Job{Module: mods[0], Config: cfg})
	close(release)
	if r := <-done; r.Err != nil {
		t.Fatal(r.Err)
	}
	if res.Err != nil || !res.CacheHit || res.DiskHit {
		t.Fatalf("lookup during the flush: err=%v CacheHit=%v DiskHit=%v, want the in-flight entry", res.Err, res.CacheHit, res.DiskHit)
	}
	// Once the Save has landed the entry answers from disk.
	if res := eng.RunOne(Job{Module: mods[0], Config: cfg}); !res.DiskHit {
		t.Fatalf("after the flush: DiskHit=%v, want a disk hit", res.DiskHit)
	}
}
