package engine

import (
	"fmt"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
)

// TestSolutionCacheLRU unit-tests the eviction order: the least recently
// *used* entry goes first, and get refreshes recency.
func TestSolutionCacheLRU(t *testing.T) {
	c := newSolutionCache(2)
	c.put("a", cached{}, rawKey{})
	c.put("b", cached{}, rawKey{})
	if _, ok := c.get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", cached{}, rawKey{}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past the cap")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 || c.evictions != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.len(), c.evictions)
	}
	// Re-putting an existing key refreshes, never evicts.
	c.put("c", cached{}, rawKey{})
	if c.len() != 2 || c.evictions != 1 {
		t.Fatalf("re-put changed occupancy: len=%d evictions=%d", c.len(), c.evictions)
	}
}

// TestRawIndexBoundedByEntries: an entry keeps at most maxRawPerEntry
// raw keys (a new one replaces the oldest), and eviction and drop take
// an entry's raw keys with it.
func TestRawIndexBoundedByEntries(t *testing.T) {
	c := newSolutionCache(2)
	rk := func(i byte) rawKey { return rawKey{i} }
	c.put("a", cached{}, rk(1))
	for i := byte(2); i <= maxRawPerEntry+1; i++ {
		c.index(rk(i), "a")
	}
	if _, _, ok := c.getRaw(rk(1)); ok || len(c.raw) != maxRawPerEntry {
		t.Fatalf("oldest raw key kept (%v) or index holds %d keys, want %d", ok, len(c.raw), maxRawPerEntry)
	}
	c.index(rk(9), "never-put")
	c.put("b", cached{}, rk(10))
	c.put("c", cached{}, rawKey{}) // evicts a
	if len(c.raw) != 1 {
		t.Fatalf("index holds %d keys after evicting a, want b's one", len(c.raw))
	}
	c.drop("b")
	if len(c.raw) != 0 {
		t.Fatalf("index holds %d keys after dropping b", len(c.raw))
	}
}

// TestCacheBoundedUnderChurn is the lifecycle regression test for the
// unbounded-map cache: a churning workload of distinct jobs must never
// push occupancy past the configured cap, while the hot tail stays cached.
func TestCacheBoundedUnderChurn(t *testing.T) {
	const cap = 8
	mods := testModules(3)
	eng := New(Options{Workers: 4, Cache: true, CacheEntries: cap})
	// 48 distinct cache keys over 3 modules: explicit keys make every job
	// a distinct entry without generating 48 modules.
	var jobs []Job
	for round := 0; round < 16; round++ {
		for i, m := range mods {
			jobs = append(jobs, Job{
				Key:    fmt.Sprintf("churn-%d-%d", round, i),
				Module: m,
				Config: core.DefaultConfig(),
			})
		}
	}
	// Batches of exactly cap jobs: the pool finishes the jobs of one batch
	// in any order, so only whole batches insert in a fixed LRU order, and
	// the final batch is exactly the resident set checked below.
	for start := 0; start < len(jobs); start += cap {
		end := start + cap
		for i, r := range eng.Run(jobs[start:end]) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", start+i, r.Err)
			}
		}
		if occ := eng.Stats().CacheEntries; occ > cap {
			t.Fatalf("cache occupancy %d exceeds cap %d after %d jobs", occ, cap, end)
		}
	}
	st := eng.Stats()
	if st.CacheEntries != cap {
		t.Fatalf("occupancy %d, want full cache %d", st.CacheEntries, cap)
	}
	if want := int64(len(jobs) - cap); st.CacheEvictions != want {
		t.Fatalf("evictions %d, want %d", st.CacheEvictions, want)
	}
	// The most recent cap keys are still resident: re-running them is all
	// cache hits and evicts nothing.
	before := st.CacheHits
	for i, r := range eng.Run(jobs[len(jobs)-cap:]) {
		if r.Err != nil || !r.CacheHit {
			t.Fatalf("tail job %d: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	st = eng.Stats()
	if st.CacheHits != before+cap {
		t.Fatalf("cache hits %d, want %d", st.CacheHits, before+cap)
	}
	if want := int64(len(jobs) - cap); st.CacheEvictions != want {
		t.Fatalf("hot re-run evicted entries: %d, want %d", st.CacheEvictions, want)
	}
}

// TestCacheUnboundedWithoutCap preserves the batch default: CacheEntries 0
// means every solution stays resident and nothing is ever evicted.
func TestCacheUnboundedWithoutCap(t *testing.T) {
	mods := testModules(5)
	eng := New(Options{Workers: 2, Cache: true})
	for i, r := range eng.Run(jobsFor(mods, core.DefaultConfig())) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	st := eng.Stats()
	if st.CacheEntries != len(mods) || st.CacheEvictions != 0 {
		t.Fatalf("unbounded cache: entries=%d evictions=%d, want %d/0",
			st.CacheEntries, st.CacheEvictions, len(mods))
	}
}
