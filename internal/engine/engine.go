// Package engine is the parallel batch-analysis engine: it fans independent
// per-file solves (and per-configuration sweeps) across a bounded goroutine
// worker pool. Every translation unit is an independent incomplete-program
// analysis (the paper's evaluation is embarrassingly parallel at the file
// level), so the engine can use all cores while guaranteeing results that
// are bit-identical to the sequential path — a guarantee enforced by the
// differential harness in this package (see differential.go).
//
// The engine provides:
//
//   - deterministic result ordering: Run(jobs)[i] always corresponds to
//     jobs[i], no matter how the scheduler interleaves workers;
//   - a content-hash-keyed solution cache, so repeated benchmark passes
//     over the same module under the same configuration skip re-solving;
//   - per-job panic recovery: a crashing solve becomes a reported job
//     failure instead of taking down the whole run;
//   - an engine stats block (jobs, cache hits, failures, wall/CPU time,
//     peak in-flight jobs).
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/store"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the goroutine pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache enables the content-hash-keyed solution cache. Cached
	// solutions are shared between results; Solution queries are
	// read-only, so sharing is safe across goroutines.
	Cache bool
	// CacheEntries bounds the number of resident cached solutions; when a
	// new solution would exceed the bound, the least recently used entry
	// is evicted (counted in Stats.CacheEvictions). <= 0 means unbounded,
	// which is fine for one-shot batch runs but not for a long-running
	// process serving an unbounded stream of distinct modules — servers
	// must set a cap.
	CacheEntries int
	// Budget is the default per-solve budget, applied to every job whose
	// own Config.Budget is zero. The effective budget is folded into the
	// job's configuration before the cache key is computed, so budgeted
	// and unbudgeted runs never share cached solutions. Degraded
	// solutions are never cached (a deadline abort is nondeterministic).
	Budget core.Budget
	// Trace, when non-nil, records engine activity onto the trace: one
	// track per pool worker carrying a span per job (queue wait and run
	// time) with the solve's own phase spans nested inside. A nil trace
	// costs nothing. Jobs can redirect their solve spans to a different
	// lane (e.g. a request-scoped trace) via Job.Trace.
	Trace *obs.Trace

	// Retry re-solves jobs that failed transiently (recovered panics,
	// injected faults) with exponential backoff and jitter. Degraded
	// results are successes — they carry the sound Ω-degraded solution —
	// and are never retried. The zero policy disables retry.
	Retry RetryPolicy
	// WatchdogFactor, when > 0, bounds solves that carry a wall-clock
	// budget deadline: one that has not answered within WatchdogFactor×
	// its deadline (the budget's own strided checks should degrade it
	// far earlier) is force-answered with the sound Ω-degradation and
	// the stuck solve abandoned. 0 disables the watchdog.
	WatchdogFactor int
	// MemSoftLimit is a soft heap bound in bytes: while the sampled
	// heap allocation exceeds it, new jobs have their budgets tightened
	// to TightBudget (componentwise minimum) so the engine degrades
	// precision before the process nears OOM. 0 disables the guard.
	MemSoftLimit uint64
	// TightBudget is the budget imposed under memory pressure. Ignored
	// when MemSoftLimit is 0.
	TightBudget core.Budget

	// OnAnomaly, when non-nil, is called at the engine's anomaly sites —
	// watchdog-forced Ω ("engine.watchdog"), memory-guard budget
	// tightening ("engine.memguard"), cache verify-on-read failure
	// ("engine.cache_corrupt"), and store verified-miss
	// ("store.corrupt") — with a stable reason string and a detail (the
	// cache key where one exists). It is always invoked outside the
	// engine's mutex, so the hook may query Stats; it must still return
	// quickly (it runs on job goroutines).
	OnAnomaly func(reason, detail string)
}

// Job is one unit of work: solve one problem under one configuration.
// Either Gen (a pre-generated constraint problem) or Module must be set,
// except for RunText jobs, whose module arrives as MIR text; when only
// Module is set, constraint generation runs inside the job (and inside
// its panic-recovery boundary).
type Job struct {
	// Key overrides the cache key. Empty means: derive it from the
	// module's content hash and the configuration (requires Module).
	Key    string
	Module *ir.Module
	Gen    *core.Gen
	// Summaries are extra handwritten imported-function summaries, used
	// only when generation runs in-job (Gen == nil).
	Summaries map[string]core.Summary
	Config    core.Config
	// Reps repeats the solve and keeps the fastest duration (the paper
	// solves each file 50 times and reports the minimum). Solutions are
	// deterministic, so only the timing differs; the first solution is
	// returned. <= 0 means 1.
	Reps int
	// Trace is the lane the solve's phase spans and convergence profile
	// are recorded onto (core.SolveOptions.Trace). The zero Track records
	// nothing; when unset and the engine has Options.Trace, the worker's
	// own track is used instead, nesting the solve under the job span.
	Trace obs.Track
	// Demand, when non-empty, switches the job to demand-driven mode: only
	// the constraint components reachable from these roots are solved, and
	// every other variable answers the sound Ω. Demand results are partial
	// by construction, so they bypass the solution cache entirely — a
	// cached demand slice must never answer a later exhaustive query.
	Demand []core.VarID
}

// Result is one job's outcome. Exactly one of Sol/Err is meaningful.
type Result struct {
	Gen *core.Gen
	Sol *core.Solution
	Err error
	// CacheHit reports that Sol was served from the solution cache.
	CacheHit bool
	// Degraded reports that the solve exhausted its budget and Sol is the
	// Ω-degraded solution (see core.Budget).
	Degraded bool
	// Duration is the fastest solve time across the job's reps (zero on
	// cache hits: nothing was solved).
	Duration time.Duration
	// Retries is how many times the job was re-solved after transient
	// failures before producing this result.
	Retries int
	// Coalesced reports that this result was shared from a concurrent
	// solve of the same cache key (request coalescing): the job waited
	// for the in-flight leader instead of re-solving. Coalesced results
	// are also CacheHits.
	Coalesced bool
	// DiskHit reports that Sol was loaded (and fingerprint-verified) from
	// the persistent store instead of solved: the warm-restart path. Disk
	// hits are also CacheHits, and the loaded solution is promoted into
	// the in-memory tier.
	DiskHit bool
	// RawHit reports that a RunText job was answered through the memory
	// tier's raw-text index, without parsing its text. Raw hits are also
	// CacheHits.
	RawHit bool
	// Incremental describes which incremental path a RunIncremental call
	// took (reuse, resume, or fallback) and how much it reused; nil for
	// ordinary jobs.
	Incremental *incr.UpdateStats
	// DemandStats reports how much of the problem a demand-driven job
	// (Job.Demand non-empty) explored; nil for exhaustive jobs. Which
	// variables were explored is Sol.Explored.
	DemandStats *core.DemandStats
}

// Stats is the engine's cumulative counters across all Run calls. The
// struct marshals to JSON with the telemetry block aggregated across every
// solved job.
type Stats struct {
	Jobs      int `json:"jobs"`
	CacheHits int `json:"cache_hits"`
	// RawHits counts the cache hits answered through the raw-text index
	// (RunText jobs that skipped parsing).
	RawHits  int `json:"raw_hits"`
	Failures int `json:"failures"`
	// Degraded counts jobs whose solve exhausted its budget and returned
	// the Ω-degraded solution.
	Degraded int `json:"degraded"`
	// CacheEntries is the cache occupancy at snapshot time, bounded by
	// Options.CacheEntries when a cap is configured.
	CacheEntries int `json:"cache_entries"`
	// CacheEvictions counts solutions dropped by the LRU bound.
	CacheEvictions int64 `json:"cache_evictions"`
	// Wall accumulates the engine's busy span: the wall-clock time during
	// which at least one job was running. Each busy span opens when a job
	// starts on an idle engine and closes when the last in-flight job
	// finishes, so overlapping Run calls (or RunOne calls racing a Run)
	// are counted once, not once per call.
	Wall time.Duration `json:"wall_ns"`
	// CPU accumulates per-job solve durations (the sequential-equivalent
	// cost of the work performed).
	CPU time.Duration `json:"cpu_ns"`
	// PeakInFlight is the maximum number of jobs observed running
	// concurrently.
	PeakInFlight int `json:"peak_in_flight"`
	// Workers is the configured pool bound.
	Workers int `json:"workers"`
	// Retries counts re-solves of transiently failed jobs;
	// RetrySuccesses counts the re-solves that then produced a result.
	Retries        int64 `json:"retries"`
	RetrySuccesses int64 `json:"retry_successes"`
	// WatchdogFired counts solves force-degraded to Ω by the watchdog.
	WatchdogFired int64 `json:"watchdog_fired"`
	// MemTightened counts jobs whose budget was tightened by the soft
	// memory guard.
	MemTightened int64 `json:"mem_tightened"`
	// CacheCorrupt counts cache entries whose content hash failed
	// verification on read; each was evicted and re-solved, never served.
	CacheCorrupt int64 `json:"cache_corrupt_detected"`
	// Coalesced counts jobs served by waiting on a concurrent identical
	// solve instead of solving themselves.
	Coalesced int64 `json:"coalesced"`
	// Incremental counts RunIncremental calls (all three paths: reuse,
	// resume, fallback); Demand counts demand-driven jobs.
	Incremental int64 `json:"incremental"`
	Demand      int64 `json:"demand"`
	// DiskHits counts jobs served from the persistent store's verified
	// second tier instead of being solved (warm-restart hits).
	DiskHits int64 `json:"disk_hits"`
	// StoreFlushed counts solutions appended to the persistent store, both
	// lazily on LRU eviction and in bulk on SyncStore (graceful drain).
	StoreFlushed int64 `json:"store_flushed"`
	// StoreEntries is the persistent store's live-entry count at snapshot
	// time; StoreCorrupt counts entries its verify-on-load rejected (each
	// was a miss answered by a re-solve, never served).
	StoreEntries int   `json:"store_entries"`
	StoreCorrupt int64 `json:"store_corrupt_detected"`
	// Telemetry aggregates per-solve telemetry across all non-cached jobs:
	// phase durations and firings sum, the worklist peak takes the max.
	Telemetry core.Telemetry `json:"telemetry"`
}

func (st Stats) String() string {
	return fmt.Sprintf("engine: %d jobs (%d cache hits, %d failures, %d degraded), wall %v, cpu %v, %d workers, peak in-flight %d",
		st.Jobs, st.CacheHits, st.Failures, st.Degraded, st.Wall.Round(time.Millisecond),
		st.CPU.Round(time.Millisecond), st.Workers, st.PeakInFlight)
}

// JSON renders the stats block (including aggregated telemetry) as
// indented JSON.
func (st Stats) JSON() string {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return "{}" // unreachable: Stats has no unmarshalable fields
	}
	return string(b)
}

// Merge accumulates u into st, for aggregating stats across several
// engines (the bench harness keeps one engine per worker count).
func (st *Stats) Merge(u Stats) {
	st.Jobs += u.Jobs
	st.CacheHits += u.CacheHits
	st.RawHits += u.RawHits
	st.Failures += u.Failures
	st.Degraded += u.Degraded
	st.CacheEntries += u.CacheEntries
	st.CacheEvictions += u.CacheEvictions
	st.Wall += u.Wall
	st.CPU += u.CPU
	st.Retries += u.Retries
	st.RetrySuccesses += u.RetrySuccesses
	st.WatchdogFired += u.WatchdogFired
	st.MemTightened += u.MemTightened
	st.CacheCorrupt += u.CacheCorrupt
	st.Coalesced += u.Coalesced
	st.Incremental += u.Incremental
	st.Demand += u.Demand
	st.DiskHits += u.DiskHits
	st.StoreFlushed += u.StoreFlushed
	st.StoreEntries += u.StoreEntries
	st.StoreCorrupt += u.StoreCorrupt
	if u.PeakInFlight > st.PeakInFlight {
		st.PeakInFlight = u.PeakInFlight
	}
	if u.Workers > st.Workers {
		st.Workers = u.Workers
	}
	st.Telemetry.Merge(u.Telemetry)
}

type cached struct {
	gen *core.Gen
	sol *core.Solution
	// fp is the solution's content hash, recorded at insert time only when
	// fault injection is armed; 0 means "no hash recorded". Lookup verifies
	// it so a corrupted entry is dropped instead of served (see verifyEntry).
	fp uint64
}

// Engine is a reusable batch solver. The zero value is not usable; call New.
type Engine struct {
	opts Options

	mu        sync.Mutex
	cache     *solutionCache
	stats     Stats
	inFlight  int
	busyStart time.Time // start of the current busy span; valid while inFlight > 0

	// dstore is the persistent second cache tier (nil = memory only):
	// consulted on memory misses, written lazily on LRU eviction and in
	// bulk by SyncStore. Guarded by mu for the pointer; the store itself
	// is internally synchronized.
	dstore *store.Store

	// Soft memory guard state: memOver latches whether the last heap
	// sample exceeded Options.MemSoftLimit; lastMemSample rate-limits
	// runtime.ReadMemStats (unix nanos of the last sample).
	memOver       atomic.Bool
	lastMemSample atomic.Int64

	// flushHold, when set (tests only), runs between an eviction and the
	// store write-behind of the evicted entries.
	flushHold func()
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: opts}
	e.stats.Workers = opts.Workers
	if opts.Cache {
		e.cache = newSolutionCache(opts.CacheEntries)
	}
	return e
}

// Workers returns the configured pool bound.
func (e *Engine) Workers() int { return e.opts.Workers }

// CacheCap returns the configured cache bound (0 means unbounded, or no
// cache at all when Options.Cache is off).
func (e *Engine) CacheCap() int {
	if e.opts.CacheEntries < 0 {
		return 0
	}
	return e.opts.CacheEntries
}

// SetStore attaches a persistent store as the cache's second tier. Pass
// nil to detach. The engine does not own the store; the caller closes it
// after the engine is drained.
func (e *Engine) SetStore(s *store.Store) {
	e.mu.Lock()
	e.dstore = s
	e.mu.Unlock()
}

// DiskStore returns the attached persistent store, or nil.
func (e *Engine) DiskStore() *store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dstore
}

// SyncStore flushes every resident non-degraded cache entry to the
// persistent store and syncs it to stable storage — the graceful-drain
// flush that makes the next process start warm. No-op without a store.
func (e *Engine) SyncStore() error {
	e.mu.Lock()
	ds := e.dstore
	var ents []cacheEntry
	if ds != nil && e.cache != nil {
		ents = e.cache.snapshot()
	}
	e.mu.Unlock()
	if ds == nil {
		return nil
	}
	before := ds.Stats().Saves
	var err error
	for _, ent := range ents {
		if ent.val.sol == nil || ent.val.sol.Degraded {
			continue
		}
		if serr := ds.Save(ent.key, ent.val.sol); serr != nil && err == nil {
			err = serr
		}
	}
	flushed := ds.Stats().Saves - before
	e.mu.Lock()
	e.stats.StoreFlushed += int64(flushed)
	e.mu.Unlock()
	if serr := ds.Sync(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	if e.cache != nil {
		st.CacheEntries = e.cache.len()
		st.CacheEvictions = e.cache.evictions
	}
	if e.dstore != nil {
		st.StoreEntries = e.dstore.Len()
		st.StoreCorrupt = int64(e.dstore.Stats().Corrupt)
	}
	// An engine mid-run has an open busy span; fold the elapsed part in so
	// live exports (/metrics) show monotonic wall time instead of
	// a value frozen at the last idle point.
	if e.inFlight > 0 {
		st.Wall += time.Since(e.busyStart)
	}
	return st
}

// ModuleHash returns the content hash of a module (the SHA-256 of its
// printed MIR form), the basis of the engine's cache keys and the
// persistent store's keys. The printed text is streamed into the hash
// in chunks, never built as a string.
func ModuleHash(m *ir.Module) string {
	h := sha256.New()
	ir.PrintTo(h, m) // a hash never fails a write
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// CacheKey combines a module content hash with a configuration.
func CacheKey(moduleHash string, cfg core.Config) string {
	return moduleHash + "|" + cfg.String()
}

// rawKeyOf is the raw-text index key of a RunText job: the SHA-256 of
// its effective configuration string and its MIR text as received. Two
// texts that print to the same module get different raw keys but share
// the canonical CacheKey they resolve to.
func rawKeyOf(text string, cfg core.Config) rawKey {
	h := sha256.New()
	io.WriteString(h, cfg.String())
	h.Write([]byte{0})
	// The hash only reads the text; viewing it in place spares a copy of
	// the whole module.
	h.Write(unsafe.Slice(unsafe.StringData(text), len(text)))
	var rk rawKey
	h.Sum(rk[:0])
	return rk
}

// Run executes all jobs across the worker pool and returns their results
// in submission order: out[i] is jobs[i]'s result regardless of scheduling
// or submission shuffling by the caller.
func (e *Engine) Run(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	workers := e.opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	submitted := time.Now()
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wtk obs.Track
			if e.opts.Trace != nil {
				wtk = e.opts.Trace.NewTrack(fmt.Sprintf("worker-%d", w))
			}
			// One arena per pool worker, reused across every job the worker
			// picks up: union-find forests, flag tables, simple-edge sets and
			// worklist storage survive from solve to solve instead of being
			// reallocated per job.
			ar := core.NewArena()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				// Queue wait is submission-to-pickup: all jobs are queued
				// the moment Run starts, so a deep batch shows later jobs
				// waiting longer — exactly the pool-saturation signal the
				// trace is for.
				sp := wtk.Begin("job",
					obs.N("index", int64(i)),
					obs.N("queue_wait_us", time.Since(submitted).Microseconds()))
				e.noteStart()
				out[i] = e.runJob(jobs[i], "", e.jobTrack(jobs[i], wtk), ar)
				e.noteDone(out[i])
				sp.End(
					obs.N("cache_hit", b2i(out[i].CacheHit)),
					obs.N("degraded", b2i(out[i].Degraded)))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// RunOne executes a single job synchronously (still inside the recovery
// boundary and the cache). With engine tracing on, the job span lands on
// a shared "inline" track (RunOne has no pool queue, so queue wait is 0).
func (e *Engine) RunOne(j Job) Result { return e.runOne(j, "") }

// RunText is RunOne for a job whose module arrives as MIR text (j.Module
// and j.Gen unset). A text the memory tier has answered before under the
// same effective configuration is answered from its raw-text index
// without parsing (Result.RawHit); otherwise the text is parsed and the
// job runs as RunOne would, and the entry that answers it is indexed
// under the text. A text that does not parse is returned as err: it is
// the caller's error, not a failed job, and is never indexed.
func (e *Engine) RunText(text string, j Job) (Result, error) {
	res := e.runOne(j, text)
	var pe *parseError
	if errors.As(res.Err, &pe) {
		return Result{}, pe.err
	}
	return res, nil
}

func (e *Engine) runOne(j Job, text string) Result {
	var wtk obs.Track
	if e.opts.Trace != nil {
		wtk = e.opts.Trace.NewTrack("inline")
	}
	sp := wtk.Begin("job", obs.N("queue_wait_us", 0))
	e.noteStart()
	res := e.runJob(j, text, e.jobTrack(j, wtk), nil)
	e.noteDone(res)
	sp.End(obs.N("cache_hit", b2i(res.CacheHit)), obs.N("degraded", b2i(res.Degraded)))
	return res
}

// parseError is a RunText text that failed to parse.
type parseError struct{ err error }

func (p *parseError) Error() string { return p.err.Error() }

// jobTrack picks the lane for a job's solve spans: the job's own
// request-scoped lane when set, else the worker's track.
func (e *Engine) jobTrack(j Job, wtk obs.Track) obs.Track {
	if j.Trace.Enabled() {
		return j.Trace
	}
	return wtk
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (e *Engine) noteStart() {
	e.mu.Lock()
	if e.inFlight == 0 {
		e.busyStart = time.Now()
	}
	e.inFlight++
	if e.inFlight > e.stats.PeakInFlight {
		e.stats.PeakInFlight = e.inFlight
	}
	e.mu.Unlock()
}

func (e *Engine) noteDone(res Result) {
	e.mu.Lock()
	e.inFlight--
	if e.inFlight == 0 {
		// Close the busy span: wall time is first-job-in to last-job-out,
		// so concurrent Run/RunOne callers never double-count an overlap,
		// and a lone RunOne contributes its span too.
		e.stats.Wall += time.Since(e.busyStart)
	}
	var pe *parseError
	if errors.As(res.Err, &pe) {
		// An unparsable text never became a job.
		e.mu.Unlock()
		return
	}
	e.stats.Jobs++
	if res.CacheHit {
		e.stats.CacheHits++
	}
	if res.RawHit {
		e.stats.RawHits++
	}
	if res.Err != nil {
		e.stats.Failures++
	}
	if res.Degraded {
		e.stats.Degraded++
	}
	// Telemetry describes solving work, so cache hits (which solved
	// nothing) contribute nothing.
	if res.Sol != nil && !res.CacheHit {
		e.stats.Telemetry.Merge(res.Sol.Telemetry)
	}
	if res.Incremental != nil {
		e.stats.Incremental++
	}
	if res.DemandStats != nil {
		e.stats.Demand++
	}
	e.stats.CPU += res.Duration
	e.mu.Unlock()
}

// store inserts c under key into the memory tier, indexing raw-text key
// rk (when non-zero) under it, and flushes what the insert evicted.
func (e *Engine) store(key string, c cached, rk rawKey) {
	e.mu.Lock()
	evicted := e.cache.put(key, c, rk)
	ds := e.dstore
	if ds != nil {
		// Until its Save lands, an evicted entry stays visible to acquire
		// through the flushing set: a lookup in the gap must not miss both
		// tiers and re-solve.
		for _, ent := range evicted {
			if flushable(ent.val) {
				e.cache.flushing[ent.key] = ent.val
			}
		}
	}
	e.mu.Unlock()
	// Lazy write-behind: entries pushed out of the memory tier are flushed
	// to the persistent store (outside the engine mutex) rather than lost,
	// so the disk tier accumulates the full history of the working set.
	if ds == nil || len(evicted) == 0 {
		return
	}
	if e.flushHold != nil {
		e.flushHold()
	}
	before := ds.Stats().Saves
	for _, ent := range evicted {
		if flushable(ent.val) {
			_ = ds.Save(ent.key, ent.val.sol) // a failed flush only costs warmth
		}
	}
	flushed := ds.Stats().Saves - before
	e.mu.Lock()
	for _, ent := range evicted {
		// A re-evicted copy of the same solution may still be in flight
		// from another flusher; this Save has already landed it.
		if f, ok := e.cache.flushing[ent.key]; ok && f.sol == ent.val.sol {
			delete(e.cache.flushing, ent.key)
		}
	}
	e.stats.StoreFlushed += int64(flushed)
	e.mu.Unlock()
}

// flushable reports whether an evicted entry belongs on disk: degraded
// solutions never do.
func flushable(c cached) bool { return c.sol != nil && !c.sol.Degraded }

// anomaly reports an anomaly to the Options.OnAnomaly hook, if any.
// Callers must not hold e.mu: the hook may read Stats.
func (e *Engine) anomaly(reason, detail string) {
	if e.opts.OnAnomaly != nil {
		e.opts.OnAnomaly(reason, detail)
	}
}

// lookupRaw resolves a raw-text key against the memory tier. It never
// takes a reservation: a miss (or an entry that fails verification)
// sends the caller on to parse and acquire the canonical key.
func (e *Engine) lookupRaw(rk rawKey) (cached, bool) {
	e.mu.Lock()
	key, c, ok := e.cache.getRaw(rk)
	if !ok {
		e.mu.Unlock()
		return cached{}, false
	}
	if e.verifyEntry(key, c) {
		e.mu.Unlock()
		return c, true
	}
	e.mu.Unlock()
	e.anomaly("engine.cache_corrupt", key)
	return cached{}, false
}

// acquire resolves key against the cache with request coalescing. It
// either returns a verified cache hit (rsv == nil), or makes the caller
// the leader for key (hit == false): the caller must solve and then
// release rsv exactly once, success or not. A caller that finds another
// leader in flight waits for it; a shared exact solution comes back as a
// coalesced hit, while a failed or degraded leader sends waiters back
// around the loop to solve for themselves. A hit indexes raw-text key rk
// (when non-zero) under key, if key is resident.
func (e *Engine) acquire(key string, rk rawKey) (c cached, hit bool, coalesced bool, rsv *reservation) {
	// A verify-on-read failure is detected under e.mu; the anomaly hook
	// must run outside it (it may read Stats), so flag it and fire on the
	// way out — whichever branch returns.
	corrupt := false
	defer func() {
		if corrupt {
			e.anomaly("engine.cache_corrupt", key)
		}
	}()
	for {
		e.mu.Lock()
		if c, ok := e.cache.get(key); ok {
			if e.verifyEntry(key, c) {
				e.cache.index(rk, key)
				e.mu.Unlock()
				return c, true, coalesced, nil
			}
			// Entry failed content-hash verification: verifyEntry dropped
			// it; fall through and solve as if it had never been cached.
			corrupt = true
		} else if c, ok := e.cache.flushing[key]; ok && intact(c) {
			// Evicted, and its write-behind has not landed yet.
			e.mu.Unlock()
			return c, true, coalesced, nil
		}
		r, inFlight := e.cache.reserved[key]
		if !inFlight {
			r = &reservation{done: make(chan struct{})}
			e.cache.reserved[key] = r
			e.mu.Unlock()
			return cached{}, false, coalesced, r
		}
		e.mu.Unlock()
		<-r.done
		if r.ok {
			e.mu.Lock()
			e.stats.Coalesced++
			e.cache.index(rk, key)
			e.mu.Unlock()
			return r.c, true, true, nil
		}
		// The leader failed or degraded; re-check the cache and contend
		// to become the next leader.
	}
}

// verifyEntry checks a cache entry's content hash on read. Entries carry
// a hash only when faults are armed (fp != 0); a mismatch means the
// entry no longer matches the solution it was stored with — it is
// dropped and counted, and the caller re-solves. Called under e.mu.
func (e *Engine) verifyEntry(key string, c cached) bool {
	if intact(c) {
		return true
	}
	e.cache.drop(key)
	e.stats.CacheCorrupt++
	return false
}

// intact reports whether an entry still matches the content hash it was
// stored with (always true when no hash was recorded).
func intact(c cached) bool {
	return c.fp == 0 || faults.Active() == nil || fingerprintHash(c.sol) == c.fp
}

// release ends the caller's leadership of key: the reservation is
// removed and its waiters woken. Deferred by the leader in attemptJob so
// that every exit — including a recovered panic between reserve and
// store — releases exactly once; a leaked reservation would deadlock
// every later job with the same key.
func (e *Engine) release(key string, rsv *reservation) {
	e.mu.Lock()
	if e.cache.reserved[key] == rsv {
		delete(e.cache.reserved, key)
	}
	e.mu.Unlock()
	close(rsv.done)
}

// runJob executes one job with the retry policy: transient failures
// (recovered panics, injected faults) are re-solved up to Retry.Max
// times with exponential backoff and jitter. Structural failures and
// degraded results return immediately — a degraded result is a success
// carrying the sound Ω-degradation, and retrying it would just spend
// the budget again. text is a RunText job's MIR text, else "".
func (e *Engine) runJob(j Job, text string, tk obs.Track, ar *core.Arena) Result {
	res := e.attemptJob(j, text, tk, ar)
	for n := 1; res.Err != nil && n <= e.opts.Retry.Max && retryable(res.Err); n++ {
		e.mu.Lock()
		e.stats.Retries++
		e.mu.Unlock()
		time.Sleep(e.opts.Retry.backoff(n))
		res = e.attemptJob(j, text, tk, ar)
		res.Retries = n
		if res.Err == nil {
			e.mu.Lock()
			e.stats.RetrySuccesses++
			e.mu.Unlock()
		}
	}
	return res
}

// attemptJob executes one solve attempt. Any panic below this frame — in
// constraint generation, the solver, cache-key hashing, or an injected
// fault — is converted into a Result.Err so one bad file cannot take
// down a batch run (and so the retry layer can classify it).
//
// A RunText job (text != "") takes the same steps, with the raw-text
// index consulted before parsing: the dispatch fault, the memory guard
// and the default budget shape the one effective configuration both
// keys derive from, and the lookup fault fires once and governs both
// lookups.
func (e *Engine) attemptJob(j Job, text string, tk obs.Track, ar *core.Arena) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: &panicError{val: r, stack: debug.Stack()}}
		}
	}()
	if j.Gen == nil && j.Module == nil && text == "" {
		return Result{Err: errors.New("engine: job has neither Module nor Gen")}
	}
	// Chaos hook: dispatch faults stand for everything that can go wrong
	// between queueing a job and starting its solve.
	if err := faults.Inject(faults.EngineDispatch); err != nil {
		return Result{Err: fmt.Errorf("engine: dispatch: %w", err)}
	}
	// Soft memory guard: under heap pressure, tighten the job's budget
	// before it is folded into the cache key, so pressured solves degrade
	// to Ω sooner instead of pushing the process toward OOM.
	e.sampleMem()
	if e.opts.MemSoftLimit != 0 && e.memOver.Load() && !e.opts.TightBudget.IsZero() {
		if t := tightenBudget(j.Config.Budget, e.opts.TightBudget); t != j.Config.Budget {
			j.Config.Budget = t
			e.mu.Lock()
			e.stats.MemTightened++
			e.mu.Unlock()
			e.anomaly("engine.memguard", "")
		}
	}
	// Fold the engine's default budget into the job's configuration before
	// computing the cache key: the budget is part of Config.String(), so a
	// budgeted job can never be served an unbudgeted cached solution (or
	// vice versa).
	if j.Config.Budget.IsZero() && !e.opts.Budget.IsZero() {
		j.Config.Budget = e.opts.Budget
	}
	// Demand-driven jobs bypass the cache in both directions: their
	// solutions are partial slices, exact only on the explored components,
	// so serving a cached exhaustive solution would overstate the work done
	// and storing the slice would poison later exhaustive queries.
	if len(j.Demand) > 0 {
		gen := j.Gen
		if gen == nil {
			gen = core.GenerateWith(j.Module, j.Summaries, nil)
		}
		sol, err := e.solveGuarded(gen.Problem, j.Config, core.SolveOptions{Trace: tk, Arena: ar, Demand: j.Demand})
		if err != nil {
			return Result{Err: err}
		}
		ds := sol.Demand()
		if ds == nil {
			// The watchdog answered with the Ω-degradation before the slice
			// was solved: nothing was explored.
			ds = &core.DemandStats{TotalVars: gen.Problem.NumVars(), TotalConstraints: gen.Problem.NumConstraints()}
		}
		return Result{Gen: gen, Sol: sol, Degraded: sol.Degraded, Duration: sol.Stats.Duration, DemandStats: ds}
	}
	key := j.Key
	var rk rawKey
	var rsv *reservation
	// Chaos hook: a lookup fault means the cache answered with garbage or
	// not at all; the job solves as if it had missed (skipping the raw
	// index and the reservation too — a broken cache must not serialize
	// solves behind it).
	look := e.cache != nil && (key != "" || j.Module != nil || text != "") &&
		faults.Inject(faults.EngineCacheLook) == nil
	if look && text != "" {
		rk = rawKeyOf(text, j.Config)
		if c, ok := e.lookupRaw(rk); ok {
			return Result{Gen: c.gen, Sol: c.sol, CacheHit: true, RawHit: true}
		}
	}
	if j.Module == nil && j.Gen == nil {
		m, err := ir.Parse(text)
		if err != nil {
			return Result{Err: &parseError{err}}
		}
		j.Module = m
	}
	if e.cache != nil && key == "" && j.Module != nil {
		key = CacheKey(ModuleHash(j.Module), j.Config)
	}
	if look {
		c, hit, coalesced, r := e.acquire(key, rk)
		if hit {
			return Result{Gen: c.gen, Sol: c.sol, CacheHit: true, Coalesced: coalesced}
		}
		rsv = r
		defer e.release(key, rsv)
	}
	gen := j.Gen
	if gen == nil {
		gen = core.GenerateWith(j.Module, j.Summaries, nil)
	}
	// Second tier: on a memory miss the leader consults the persistent
	// store before solving. Store.Load re-verifies the CRC and fingerprint
	// of every entry, so a hit here is exactly the solution a fresh solve
	// would produce — it is promoted into the memory LRU and shared with
	// coalesced waiters like any other cache hit. This is the warm-restart
	// path: a restarted process re-answers its working set with zero
	// re-solves.
	if ds := e.DiskStore(); ds != nil && rsv != nil {
		corruptBefore := ds.Stats().Corrupt
		if sol, ok := ds.Load(key, gen.Problem); ok {
			ent := cached{gen: gen, sol: sol}
			if faults.Active() != nil {
				ent.fp = fingerprintHash(sol)
			}
			e.store(key, ent, rk)
			rsv.c = ent
			rsv.ok = true
			e.mu.Lock()
			e.stats.DiskHits++
			e.mu.Unlock()
			return Result{Gen: gen, Sol: sol, CacheHit: true, DiskHit: true}
		} else if ds.Stats().Corrupt > corruptBefore {
			// A verified miss: the store had the entry but its
			// CRC/decode/fingerprint check failed. The job re-solves;
			// the anomaly hook gets the forensic signal.
			e.anomaly("store.corrupt", key)
		}
	}
	reps := j.Reps
	if reps < 1 {
		reps = 1
	}
	var sol *core.Solution
	var best time.Duration
	for r := 0; r < reps; r++ {
		s, err := e.solveGuarded(gen.Problem, j.Config, core.SolveOptions{Trace: tk, Arena: ar})
		if err != nil {
			return Result{Err: err}
		}
		if r == 0 {
			sol = s
			best = s.Stats.Duration
		} else if s.Stats.Duration < best {
			best = s.Stats.Duration
		}
	}
	// Degraded solutions are never cached: a deadline abort depends on the
	// machine's momentary load, so caching it would freeze a nondeterministic
	// outcome into every later run. They are not shared with coalesced
	// waiters either — each waiter re-solves and gets its own chance at the
	// exact answer.
	if !sol.Degraded {
		if e.cache != nil && key != "" {
			// Chaos hook: an insert fault loses the cache write but not
			// the solve — the job still answers, the entry is just not
			// resident (an injected panic instead fails the whole attempt,
			// exercising the reservation-release-on-panic path).
			if err := faults.Inject(faults.EngineCacheIns); err == nil {
				ent := cached{gen: gen, sol: sol}
				if faults.Active() != nil {
					ent.fp = fingerprintHash(sol)
					if faults.ShouldCorrupt(faults.EngineCacheIns) {
						// Simulated corruption: perturb the stored hash so
						// the entry no longer matches its content, exactly
						// what a flipped bit in either would look like to
						// verification. The shared in-memory solution is
						// left intact — live results must stay usable.
						ent.fp ^= 0x9e3779b97f4a7c15
					}
				}
				e.store(key, ent, rk)
			}
		}
		if rsv != nil {
			// Publish the exact solution to coalesced waiters (memory
			// ordering via close(done) in release, which the defer runs
			// after these writes).
			rsv.c = cached{gen: gen, sol: sol}
			rsv.ok = true
		}
	}
	return Result{Gen: gen, Sol: sol, Degraded: sol.Degraded, Duration: best}
}

// RunIncremental solves one generation of an incrementally resubmitted
// module. A nil prior state establishes generation 0 from scratch; a
// non-nil state is diffed against the resubmission and the solve reuses,
// resumes, or falls back as the summary delta allows (see
// internal/core/incr). A lineage's configuration is fixed at generation 0
// (with the engine's default budget folded in); later generations inherit
// it and the job's own Config is ignored — a configuration change is a
// different lineage. When the job carries no Gen, the module is generated
// against the previous generation's problem, so surviving variables keep
// their IDs and an appended function resumes instead of falling back.
// The incremental path neither reads nor writes the solution cache; the
// summary diff is its fast path.
func (e *Engine) RunIncremental(st *incr.State, j Job) (Result, *incr.State) {
	var wtk obs.Track
	if e.opts.Trace != nil {
		wtk = e.opts.Trace.NewTrack("inline")
	}
	sp := wtk.Begin("incremental-job", obs.N("queue_wait_us", 0))
	e.noteStart()
	res, nst := e.attemptIncremental(st, j, e.jobTrack(j, wtk))
	e.noteDone(res)
	sp.End(obs.N("degraded", b2i(res.Degraded)))
	return res, nst
}

// attemptIncremental is one incremental solve attempt inside the panic
// recovery boundary. On failure the prior state is returned unchanged so
// the caller's lineage survives a bad resubmission.
func (e *Engine) attemptIncremental(st *incr.State, j Job, tk obs.Track) (res Result, nst *incr.State) {
	defer func() {
		if r := recover(); r != nil {
			res, nst = Result{Err: &panicError{val: r, stack: debug.Stack()}}, st
		}
	}()
	if j.Gen == nil && j.Module == nil {
		return Result{Err: errors.New("engine: job has neither Module nor Gen")}, st
	}
	if err := faults.Inject(faults.EngineDispatch); err != nil {
		return Result{Err: fmt.Errorf("engine: dispatch: %w", err)}, st
	}
	gen := j.Gen
	if gen == nil {
		// Number against the previous generation, so a variable keeps its
		// ID across edits and an appended function diffs as an addition.
		var prev *core.Problem
		if st != nil {
			prev = st.Problem
		}
		gen = core.GenerateWith(j.Module, j.Summaries, prev)
	}
	var stats *incr.UpdateStats
	var err error
	if st == nil {
		// Generation 0: fold the engine defaults into the lineage's
		// configuration once; every later generation inherits the result.
		if j.Config.Budget.IsZero() && !e.opts.Budget.IsZero() {
			j.Config.Budget = e.opts.Budget
		}
		nst, err = incr.New(gen.Problem, j.Config, tk)
		if err != nil {
			return Result{Err: err}, st
		}
		stats = &incr.UpdateStats{
			FallbackReason:  incr.FallbackInitial,
			Added:           nst.Summary.NumConstraints(),
			FullConstraints: nst.Summary.NumConstraints(),
		}
	} else {
		nst, stats, err = st.Update(gen.Problem, tk)
		if err != nil {
			return Result{Err: err}, st
		}
	}
	if nst.Problem != gen.Problem {
		// The update fell back and solved the compacted problem; answer
		// through the same numbering. A caller-supplied Gen is copied
		// first, because compacting rewrites its maps.
		if j.Gen != nil {
			gen = gen.Clone()
		}
		gen.UseCompacted(nst.Problem)
	}
	sol := nst.Sol
	dur := sol.Stats.Duration
	if stats.ReusedSolution {
		// Nothing was solved; the reused solution's duration belongs to the
		// generation that actually computed it.
		dur = 0
	}
	return Result{
		Gen:         gen,
		Sol:         sol,
		Degraded:    sol.Degraded,
		Duration:    dur,
		CacheHit:    stats.ReusedSolution,
		Incremental: stats,
	}, nst
}
