// Package pip is the public API of this reproduction of "PIP: Making
// Andersen's Points-to Analysis Sound and Practical for Incomplete C
// Programs" (CGO 2026).
//
// The library analyzes a single translation unit (an incomplete program)
// and produces a points-to solution that is sound no matter what external
// modules the unit is eventually linked with. Inputs can be mini-C source
// (compiled by the built-in frontend) or MIR, the library's LLVM-like
// textual IR.
//
// Basic use:
//
//	res, err := pip.AnalyzeC("file.c", src, pip.DefaultConfig())
//	targets, external, _ := res.PointsTo("callMe.r")
//
// The Config type selects among the paper's solver configurations, e.g.
// pip.MustParseConfig("IP+WL(FIFO)+PIP").
package pip

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pip-analysis/pip/internal/alias"
	"github.com/pip-analysis/pip/internal/callgraph"
	"github.com/pip-analysis/pip/internal/cfront"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/modref"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/opt"
	"github.com/pip-analysis/pip/internal/store"
)

// Config selects a solver configuration (paper Table IV). Use
// DefaultConfig, ParseConfig, or AllConfigs to obtain one.
type Config = core.Config

// DefaultConfig returns the fastest configuration overall:
// IP+WL(FIFO)+PIP.
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseConfig parses the paper's configuration notation, for example
// "EP+OVS+WL(LRF)+OCD" or "IP+WL(FIFO)+PIP".
func ParseConfig(s string) (Config, error) { return core.ParseConfig(s) }

// MustParseConfig is ParseConfig that panics on error.
func MustParseConfig(s string) Config { return core.MustParseConfig(s) }

// AllConfigs enumerates every valid solver configuration.
func AllConfigs() []Config { return core.AllConfigs() }

// Budget bounds a solve (wall-clock deadline and/or rule-firing cap). A
// solve that exhausts its budget returns the trivially sound Ω-degraded
// solution instead of the exact fixed point; see Result.Degraded.
type Budget = core.Budget

// ParseBudget parses a budget string: a duration ("100ms"), a firing cap
// ("5000f"), or both separated by a comma.
func ParseBudget(s string) (Budget, error) { return core.ParseBudget(s) }

// BudgetFromContext tightens base so a solve started now finishes within
// ctx's deadline; an already-expired context yields a budget that degrades
// immediately. This is how a server maps request deadlines onto solver
// budgets: overloaded requests degrade soundly instead of timing out.
func BudgetFromContext(ctx context.Context, base Budget) Budget {
	return core.BudgetFromContext(ctx, base)
}

// Telemetry is the per-solve instrumentation block: phase timers, rule
// firing counts, and the worklist high-water mark.
type Telemetry = core.Telemetry

// Trace is a low-overhead structured trace of one or more solves: a
// fixed-capacity ring of spans, instant events, and counter samples that
// can be exported as Chrome trace_event JSON (chrome://tracing, Perfetto)
// or rendered as a plain-text phase tree. See NewTrace.
type Trace = obs.Trace

// TraceLane is one named lane (track) of a Trace; pass it to
// AnalyzeTraced or BatchOptions to direct recording. The zero TraceLane
// records nothing.
type TraceLane = obs.Track

// NewTrace returns an enabled trace with the given label. Capacity is the
// maximum number of resident records; <= 0 picks a default (64k records)
// that comfortably holds a corpus batch. When the ring fills, new records
// are dropped (and counted) rather than overwriting the solve's opening
// phases.
func NewTrace(label string, capacity int) *Trace { return obs.New(label, capacity) }

// Module is a parsed or compiled translation unit.
type Module = ir.Module

// CompileC compiles mini-C source into a module.
func CompileC(name, src string) (*Module, error) { return cfront.Compile(name, src) }

// ParseIR parses MIR textual IR into a module.
func ParseIR(src string) (*Module, error) { return ir.Parse(src) }

// PrintIR renders a module in MIR textual syntax.
func PrintIR(m *Module) string { return ir.Print(m) }

// AliasResult is an alias query answer.
type AliasResult = alias.Result

// Alias query answers.
const (
	NoAlias   = alias.NoAlias
	MayAlias  = alias.MayAlias
	MustAlias = alias.MustAlias
)

// Summary is a handwritten points-to summary for an imported library
// function (paper Section III-B). Passing summaries to
// AnalyzeWithSummaries improves precision over the generic conservative
// treatment of imported functions; malloc/free/memcpy summaries are built
// in.
type Summary = core.Summary

// Result is a completed analysis of one module.
type Result struct {
	Module *Module
	gen    *core.Gen
	sol    *core.Solution
}

// Analyze runs both analysis phases on a module.
func Analyze(m *Module, cfg Config) (*Result, error) {
	return AnalyzeWithSummaries(m, cfg, nil)
}

// AnalyzeWithSummaries is Analyze with extra handwritten summaries for
// imported functions (entries override the built-in defaults).
func AnalyzeWithSummaries(m *Module, cfg Config, summaries map[string]Summary) (*Result, error) {
	return analyzeTraced(m, cfg, summaries, obs.Track{})
}

// AnalyzeTraced is Analyze recording the solve's phase spans, cycle
// collapses, and convergence profile onto the given trace lane:
//
//	tr := pip.NewTrace("my-solve", 0)
//	res, err := pip.AnalyzeTraced(m, cfg, tr.NewTrack("solver"))
//	_ = tr.WriteChromeFile("solve.trace.json") // open in Perfetto
func AnalyzeTraced(m *Module, cfg Config, lane TraceLane) (*Result, error) {
	return analyzeTraced(m, cfg, nil, lane)
}

func analyzeTraced(m *Module, cfg Config, summaries map[string]Summary, lane obs.Track) (*Result, error) {
	gen := core.GenerateWith(m, summaries, nil)
	sol, err := core.Solve(gen.Problem, cfg, core.SolveOptions{Trace: lane})
	if err != nil {
		return nil, err
	}
	return &Result{Module: m, gen: gen, sol: sol}, nil
}

// BatchOptions configures AnalyzeBatch and NewEngine.
type BatchOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache reuses solutions for modules with identical content (keyed by
	// content hash + configuration).
	Cache bool
	// CacheEntries bounds the number of resident cached solutions; the
	// least recently used entry is evicted beyond the bound. <= 0 means
	// unbounded — fine for one-shot batch runs, but long-running processes
	// (servers) must set a cap or the cache grows without bound.
	CacheEntries int
	// Summaries are extra handwritten summaries applied to every module.
	Summaries map[string]Summary
	// Budget bounds each module's solve; modules that exhaust it yield
	// Degraded results (see Budget).
	Budget Budget
	// Trace, when non-nil, records engine activity (one track per pool
	// worker, a span per job with queue-wait and outcome, the solve's
	// phase spans nested inside) onto the trace. Nil costs nothing.
	Trace *Trace

	// Retries re-solves a transiently failed job (recovered panic or
	// injected fault) up to this many times with exponential backoff.
	// 0 disables retry. Degraded results are successes and never retried.
	Retries int
	// WatchdogFactor arms the solve watchdog: a solve still running after
	// WatchdogFactor× its wall deadline is abandoned and answered with the
	// sound Ω-degraded solution. <= 0 disables the watchdog; it also never
	// fires for solves with no deadline.
	WatchdogFactor int
	// MemSoftLimit switches new jobs to TightBudget while the process heap
	// exceeds this many bytes — solves degrade to Ω sooner instead of
	// pushing toward OOM. 0 disables the guard.
	MemSoftLimit uint64
	// TightBudget is the budget applied under memory pressure (componentwise
	// minimum with the job's own budget, so it only ever tightens).
	TightBudget Budget
	// OnAnomaly, when non-nil, is called at the engine's anomaly sites
	// (watchdog-forced Ω, memory-guard tightening, cache verify-on-read
	// failure, store verified-miss) with a stable reason string and a
	// detail. The server wires it to its flight recorder. Called outside
	// engine locks; must return quickly.
	OnAnomaly func(reason, detail string)
}

// ArmChaos arms process-global fault injection from a spec string like
//
//	seed=42;engine.dispatch=error:0.01;core.wave=panic:0.01
//
// and returns the disarm function. Faults fire deterministically as a
// function of (seed, injection point, hit number), so a chaos run is
// reproducible bit-for-bit given the same spec and workload. Injection
// points cover the solver core, the engine's dispatch and cache, and the
// serve admission/handler path; `*` addresses every point not named
// explicitly. See the "Fault model & resilience" section of DESIGN.md.
func ArmChaos(spec string) (disarm func(), err error) {
	reg, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	faults.Arm(reg)
	return faults.Disarm, nil
}

// BatchResult is one module's outcome: either Result or Err is set.
// CacheHit reports that the solution was reused from an earlier,
// content-identical analysis on the same engine.
type BatchResult struct {
	Result   *Result
	Err      error
	CacheHit bool
	// Degraded reports that this module's solve exhausted its Budget.
	Degraded bool
	// Duration is the solve time (zero on cache hits).
	Duration time.Duration
	// Incremental describes which incremental path a Session analysis took
	// (reuse, resume, or fallback); nil for ordinary analyses.
	Incremental *IncrementalStats
	// Demand reports how much of the problem a demand-driven analysis
	// explored; nil for exhaustive analyses.
	Demand *DemandStats
	// DiskHit reports that the solution was loaded, fingerprint-verified,
	// from the engine's persistent store rather than solved — the
	// warm-restart path. Disk hits are also CacheHits.
	DiskHit bool
	// RawHit reports that Engine.AnalyzeIR answered from the engine's
	// memory tier by the MIR text alone, without parsing it. Raw hits are
	// also CacheHits.
	RawHit bool
}

// IncrementalStats reports which path an incremental re-analysis took
// (solution reuse, checkpoint resume, or from-scratch fallback) and how
// many constraints it reused.
type IncrementalStats = incr.UpdateStats

// DemandStats reports how much of a problem a demand-driven analysis
// explored: variables and constraints in the solved slice versus totals.
type DemandStats = core.DemandStats

// Engine is a shared, reusable analysis engine: a bounded worker pool with
// a size-bounded LRU solution cache, per-solve budgets, and per-job panic
// recovery. Unlike the one-shot AnalyzeBatch helper, an Engine is built to
// live for the whole process — a long-running service shares one Engine
// across every request so cached solutions and stats accumulate.
type Engine struct {
	eng *engine.Engine
}

// NewEngine returns a shared engine with the given options.
func NewEngine(opts BatchOptions) *Engine {
	return &Engine{eng: engine.New(engine.Options{
		Workers:        opts.Workers,
		Cache:          opts.Cache,
		CacheEntries:   opts.CacheEntries,
		Budget:         opts.Budget,
		Trace:          opts.Trace,
		Retry:          engine.RetryPolicy{Max: opts.Retries},
		WatchdogFactor: opts.WatchdogFactor,
		MemSoftLimit:   opts.MemSoftLimit,
		TightBudget:    opts.TightBudget,
		OnAnomaly:      opts.OnAnomaly,
	})}
}

// Analyze runs one module through the shared engine: the solve hits the
// engine's cache, honours its default budget (tightened by cfg.Budget when
// set), and converts panics into errors.
func (e *Engine) Analyze(m *Module, cfg Config) BatchResult {
	return e.AnalyzeWithSummaries(m, cfg, nil)
}

// AnalyzeWithSummaries is Analyze with extra imported-function summaries.
func (e *Engine) AnalyzeWithSummaries(m *Module, cfg Config, summaries map[string]Summary) BatchResult {
	return toBatchResult(m, e.eng.RunOne(engine.Job{Module: m, Config: cfg, Summaries: summaries}))
}

// AnalyzeTraced is AnalyzeWithSummaries recording the solve's phase spans
// and convergence profile onto the given trace lane — the hook a server
// uses to attach a request-scoped lane (named by its request ID) to the
// solve running on the shared engine.
func (e *Engine) AnalyzeTraced(m *Module, cfg Config, summaries map[string]Summary, lane TraceLane) BatchResult {
	return toBatchResult(m, e.eng.RunOne(engine.Job{Module: m, Config: cfg, Summaries: summaries, Trace: lane}))
}

// AnalyzeIR parses and analyzes MIR text on the shared engine, like
// AnalyzeTraced on ParseIR's module, but parses only when it must: MIR
// text the engine's memory tier has answered before under the same
// effective configuration is answered without parsing
// (BatchResult.RawHit). A text that does not parse is returned as err,
// and in BatchResult.Err.
func (e *Engine) AnalyzeIR(src string, cfg Config, summaries map[string]Summary, lane TraceLane) (BatchResult, error) {
	r, err := e.eng.RunText(src, engine.Job{Config: cfg, Summaries: summaries, Trace: lane})
	if err != nil {
		return BatchResult{Err: err}, err
	}
	return toBatchResult(nil, r), nil
}

// AnalyzeBatch analyzes many independent modules concurrently across the
// engine's worker pool; results come back in input order.
func (e *Engine) AnalyzeBatch(mods []*Module, cfg Config, summaries map[string]Summary) []BatchResult {
	jobs := make([]engine.Job, len(mods))
	for i, m := range mods {
		jobs[i] = engine.Job{Module: m, Config: cfg, Summaries: summaries}
	}
	out := make([]BatchResult, len(mods))
	for i, r := range e.eng.Run(jobs) {
		out[i] = toBatchResult(mods[i], r)
	}
	return out
}

// EngineStats is the engine's cumulative counter block (jobs, cache hits
// and occupancy, failures, degradations, busy wall time, telemetry).
type EngineStats = engine.Stats

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// CacheCap returns the configured cache bound (0 = unbounded or no cache).
func (e *Engine) CacheCap() int { return e.eng.CacheCap() }

// OpenStore attaches a persistent on-disk solution store rooted at dir as
// the cache's second tier: memory hit → verified disk hit → solve. Cached
// solutions are flushed to it lazily on LRU eviction and in bulk by
// SyncStore, so a process restarted over the same directory answers its
// previous working set without re-solving. Every load is CRC- and
// fingerprint-verified; corrupt or stale entries are misses, never served.
func (e *Engine) OpenStore(dir string) error {
	ds, err := store.Open(dir)
	if err != nil {
		return err
	}
	e.eng.SetStore(ds)
	return nil
}

// SyncStore flushes every resident non-degraded cached solution to the
// persistent store and syncs it to stable storage. Servers call this on
// graceful drain. No-op when no store is attached.
func (e *Engine) SyncStore() error { return e.eng.SyncStore() }

// CloseStore detaches and closes the persistent store (flushing the cache
// to it first). No-op when no store is attached.
func (e *Engine) CloseStore() error {
	ds := e.eng.DiskStore()
	if ds == nil {
		return nil
	}
	err := e.eng.SyncStore()
	e.eng.SetStore(nil)
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	return err
}

// AnalyzeDegraded returns the trivially sound Ω-degraded analysis of m
// without solving: every pointer-compatible variable points to external
// memory and everything escapes. It is the answer of last resort — the
// shard router serves it when every backend and the local solve path are
// unavailable, because a sound over-approximation is always preferable to
// a drop or an error.
func AnalyzeDegraded(m *Module) *Result {
	gen := core.Generate(m)
	return &Result{Module: m, gen: gen, sol: core.DegradedSolution(gen.Problem)}
}

func toBatchResult(m *Module, r engine.Result) BatchResult {
	if r.Err != nil {
		return BatchResult{Err: r.Err}
	}
	// On a cache hit r.Gen belongs to the module instance that populated
	// the cache, and its value→variable maps are keyed by that instance's
	// values. Pair the Result with that module so name queries resolve;
	// pairing it with m (a structurally equal but distinct instance) would
	// make every lookup miss.
	if r.Gen != nil && r.Gen.Module != nil {
		m = r.Gen.Module
	}
	return BatchResult{
		Result:      &Result{Module: m, gen: r.Gen, sol: r.Sol},
		CacheHit:    r.CacheHit,
		Degraded:    r.Degraded,
		Duration:    r.Duration,
		Incremental: r.Incremental,
		Demand:      r.DemandStats,
		DiskHit:     r.DiskHit,
		RawHit:      r.RawHit,
	}
}

// AnalyzeDemand runs a demand-driven analysis: only the constraint
// components reachable from the named root pointers are solved; every
// other variable soundly answers Ω (it escapes and may point to external
// memory). Root names resolve like PointsTo names ("global", "func.local",
// "func.$ret"). The returned result answers queries over the whole module
// — exactly on the explored slice, with Ω elsewhere — and reports how much
// was explored in BatchResult.Demand.
func (e *Engine) AnalyzeDemand(m *Module, cfg Config, summaries map[string]Summary, rootNames []string) (BatchResult, error) {
	gen, roots, err := DemandRoots(m, summaries, rootNames)
	if err != nil {
		return BatchResult{Err: err}, err
	}
	res := e.eng.RunOne(engine.Job{Module: m, Gen: gen, Config: cfg, Demand: roots})
	return toBatchResult(m, res), res.Err
}

// Session is one incremental analysis lineage on a shared engine: a module
// analyzed through a Session persists its constraint summary and (when the
// configuration permits) the solver's propagation state, so re-analyzing
// an edited version diffs the constraint sets and reuses, resumes, or
// falls back as the edit allows. Each version is numbered against the
// previous one, so an appended function is a pure addition the solver
// resumes, and a result answers exactly like a from-scratch analysis of
// the same version. The configuration is fixed when the session is
// created — analyzing under a different configuration is a different
// lineage. A Session is safe for concurrent use; updates are serialized.
type Session struct {
	eng *engine.Engine
	cfg Config

	mu sync.Mutex
	st *incr.State
}

// NewSession starts an incremental lineage with the given configuration
// on this engine.
func (e *Engine) NewSession(cfg Config) *Session {
	return &Session{eng: e.eng, cfg: cfg}
}

// Generation returns the lineage's current generation number, or -1 before
// the first analysis.
func (s *Session) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return -1
	}
	return s.st.Generation
}

// Analyze (re-)analyzes a version of the session's module. The first call
// solves from scratch; later calls diff the module's constraints against
// the previous generation and take the cheapest sound path (reuse the
// solution, resume propagation over the additions, or fall back to a full
// solve). BatchResult.Incremental reports which path ran.
func (s *Session) Analyze(m *Module) BatchResult {
	return s.AnalyzeWithSummaries(m, nil)
}

// AnalyzeWithSummaries is Session.Analyze with extra imported-function
// summaries.
func (s *Session) AnalyzeWithSummaries(m *Module, summaries map[string]Summary) BatchResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, nst := s.eng.RunIncremental(s.st, engine.Job{Module: m, Config: s.cfg, Summaries: summaries})
	if res.Err == nil {
		s.st = nst
	}
	return toBatchResult(m, res)
}

// AnalyzeBatch analyzes many independent modules concurrently on a fresh
// batch-analysis engine. Each translation unit is an independent
// incomplete-program analysis, so batches parallelize perfectly; results
// come back in input order and are bit-identical to analyzing each module
// alone (the engine's differential tests enforce this). A module that
// fails — even one whose analysis panics — yields an Err entry without
// affecting the other modules.
func AnalyzeBatch(mods []*Module, cfg Config, opts BatchOptions) []BatchResult {
	return NewEngine(opts).AnalyzeBatch(mods, cfg, opts.Summaries)
}

// AnalyzeC compiles and analyzes mini-C source.
func AnalyzeC(name, src string, cfg Config) (*Result, error) {
	m, err := CompileC(name, src)
	if err != nil {
		return nil, err
	}
	return Analyze(m, cfg)
}

// AnalyzeIR parses and analyzes MIR text.
func AnalyzeIR(src string, cfg Config) (*Result, error) {
	m, err := ParseIR(src)
	if err != nil {
		return nil, err
	}
	return Analyze(m, cfg)
}

// lookupValue resolves a user-facing name to an IR value:
//
//	"g"        a global or function symbol
//	"f.x"      local value %x (parameter or instruction result) in @f
//
// The standalone form takes the module explicitly so root names can be
// resolved before any solve exists (demand-driven queries resolve their
// roots pre-solve; Result methods resolve post-solve).
func lookupValue(m *Module, name string) (ir.Value, error) {
	if fn, local, ok := strings.Cut(name, "."); ok {
		f := m.Func(fn)
		if f == nil {
			return nil, fmt.Errorf("no function %q", fn)
		}
		for _, p := range f.Params {
			if p.PName == local {
				return p, nil
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IName == local {
					return in, nil
				}
			}
		}
		return nil, fmt.Errorf("no value %%%s in @%s", local, fn)
	}
	if g := m.Global(name); g != nil {
		return g, nil
	}
	if f := m.Func(name); f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("no symbol @%s", name)
}

func (r *Result) lookupValue(name string) (ir.Value, error) {
	return lookupValue(r.Module, name)
}

// varFor maps a value to the constraint variable holding its points-to set.
// For globals this is the memory cell (what the global contains), matching
// the paper's Figure 1 discussion of the pointer variable p.
func varFor(gen *core.Gen, v ir.Value) (core.VarID, error) {
	switch val := v.(type) {
	case *ir.Global:
		if id, ok := gen.MemOf[val]; ok && gen.Problem.PtrCompat[id] {
			return id, nil
		}
		return core.NoVar, fmt.Errorf("@%s holds no pointers", val.GName)
	case *ir.Instr:
		if val.Op == ir.OpAlloca {
			// A named C local: report what the stack slot contains, not
			// the (trivial) address value.
			if id, ok := gen.MemOf[val]; ok && gen.Problem.PtrCompat[id] {
				return id, nil
			}
			return core.NoVar, fmt.Errorf("%%%s holds no pointers", val.IName)
		}
		if id, ok := gen.VarOf[v]; ok {
			return id, nil
		}
		return core.NoVar, fmt.Errorf("%s has no points-to set", v.Ident())
	default:
		if id, ok := gen.VarOf[v]; ok {
			return id, nil
		}
		return core.NoVar, fmt.Errorf("%s has no points-to set", v.Ident())
	}
}

func (r *Result) varFor(v ir.Value) (core.VarID, error) {
	return varFor(r.gen, v)
}

// varForName resolves a query name to a constraint variable. In addition
// to "global" and "func.local", the pseudo-local "func.$ret" names a
// function's return-value variable. Like lookupValue it needs only the
// module and its generated constraints, not a solution.
func varForName(m *Module, gen *core.Gen, name string) (core.VarID, error) {
	if fn, local, ok := strings.Cut(name, "."); ok && local == "$ret" {
		f := m.Func(fn)
		if f == nil {
			return core.NoVar, fmt.Errorf("no function %q", fn)
		}
		if id, ok := gen.RetOf[f]; ok {
			return id, nil
		}
		return core.NoVar, fmt.Errorf("@%s returns no pointers", fn)
	}
	v, err := lookupValue(m, name)
	if err != nil {
		return core.NoVar, err
	}
	return varFor(gen, v)
}

func (r *Result) varForName(name string) (core.VarID, error) {
	return varForName(r.Module, r.gen, name)
}

// DemandRoots resolves query names ("global", "func.local", "func.$ret")
// to the constraint variables a demand-driven solve must explore. It runs
// constraint generation but no solve; pass the returned Gen to the engine
// job (or AnalyzeDemand does both).
func DemandRoots(m *Module, summaries map[string]Summary, names []string) (*core.Gen, []core.VarID, error) {
	gen := core.GenerateWith(m, summaries, nil)
	roots := make([]core.VarID, 0, len(names))
	for _, name := range names {
		id, err := varForName(m, gen, name)
		if err != nil {
			return nil, nil, fmt.Errorf("demand root %q: %w", name, err)
		}
		roots = append(roots, id)
	}
	return gen, roots, nil
}

// PointsTo returns the named memory locations the value may target, plus
// whether it may additionally target external (unknown) memory. Names take
// the form "global", "func.local", or "func.$ret".
func (r *Result) PointsTo(name string) (targets []string, external bool, err error) {
	id, err := r.varForName(name)
	if err != nil {
		return nil, false, err
	}
	for _, x := range r.sol.PointsTo(id) {
		if x == core.OmegaPointee {
			external = true
			continue
		}
		targets = append(targets, r.gen.Problem.Names[x])
	}
	sort.Strings(targets)
	return targets, external, nil
}

// PointsToExternal reports whether the named value may hold a pointer of
// unknown origin (p ⊒ Ω).
func (r *Result) PointsToExternal(name string) (bool, error) {
	id, err := r.varForName(name)
	if err != nil {
		return false, err
	}
	return r.sol.PointsToExternal(id), nil
}

// Escaped reports whether the named object is externally accessible
// (Ω ⊒ {x}).
func (r *Result) Escaped(name string) (bool, error) {
	v, err := r.lookupValue(name)
	if err != nil {
		return false, err
	}
	switch val := v.(type) {
	case *ir.Global:
		return r.sol.Escaped(r.gen.MemOf[val]), nil
	case *ir.Function:
		return r.sol.Escaped(r.gen.MemOf[val]), nil
	case *ir.Instr:
		if val.Op == ir.OpAlloca {
			return r.sol.Escaped(r.gen.MemOf[val]), nil
		}
	}
	return false, fmt.Errorf("%q does not name a memory object", name)
}

// ExternallyAccessible lists every escaped memory location by name.
func (r *Result) ExternallyAccessible() []string {
	var out []string
	for _, x := range r.sol.ExternalSet() {
		out = append(out, r.gen.Problem.Names[x])
	}
	sort.Strings(out)
	return out
}

// Dump renders the complete points-to solution.
func (r *Result) Dump() string { return r.sol.Dump() }

// ConstraintGraphDOT renders the solved constraint graph in Graphviz
// format, following the paper's drawing conventions (registers as circles,
// memory locations as squares, complex edges dashed).
func (r *Result) ConstraintGraphDOT() string {
	return core.SolutionDOT(r.gen.Problem, r.sol)
}

// Stats returns solver statistics for the run.
func (r *Result) Stats() core.SolveStats { return r.sol.Stats }

// Telemetry returns the solve's instrumentation block.
func (r *Result) Telemetry() Telemetry { return r.sol.Telemetry }

// Degraded reports that the solve exhausted its Budget and the solution is
// the trivially sound Ω-degraded one (everything escapes, every pointer
// may target external memory) rather than the exact fixed point.
func (r *Result) Degraded() bool { return r.sol.Degraded }

// AliasAnalysis constructs the combined Andersen+BasicAA alias analysis of
// the paper's precision evaluation (Figure 9).
func (r *Result) AliasAnalysis() AliasAnalysis {
	basic := alias.NewBasicAA(r.Module)
	and := alias.NewAndersen(r.gen, r.sol)
	return AliasAnalysis{
		Basic:    basic,
		Andersen: and,
		Combined: alias.Combined{basic, and},
	}
}

// AliasAnalysis bundles the three analysis configurations of Figure 9.
type AliasAnalysis struct {
	Basic    alias.Analysis
	Andersen alias.Analysis
	Combined alias.Analysis
}

// Alias answers a pairwise alias query between two named pointer values
// using the combined Andersen+BasicAA analysis: may the memory ranges
// addressed by a and b (each sized bytes wide; <= 0 means 1) overlap?
// Names resolve like PointsTo names: "global", "func.local". On a
// Degraded result the answer is conservative (typically MayAlias), never
// unsound.
func (r *Result) Alias(a, b string, size int64) (AliasResult, error) {
	va, err := r.lookupValue(a)
	if err != nil {
		return MayAlias, err
	}
	vb, err := r.lookupValue(b)
	if err != nil {
		return MayAlias, err
	}
	if size <= 0 {
		size = 1
	}
	return r.AliasAnalysis().Combined.Alias(va, size, vb, size), nil
}

// MayAliasRate runs the paper's load/store conflict-rate client over the
// module with the given analysis and returns the fraction of MayAlias
// answers (lower is more precise).
func (r *Result) MayAliasRate(an alias.Analysis) float64 {
	return alias.ConflictRate(r.Module, an).MayRate()
}

// OptStats counts the transformations applied by Optimize.
type OptStats = opt.Stats

// Optimize applies the alias-driven optimizations (redundant-load and
// dead-store elimination) to the module in place, using the combined
// Andersen+BasicAA analysis. The Result's points-to information remains
// valid: removing instructions only shrinks the program's behaviours.
func (r *Result) Optimize() OptStats {
	aa := r.AliasAnalysis()
	return opt.Run(r.Module, aa.Combined)
}

// OptimizeInterprocedural is Optimize with call effects resolved through
// the call graph and mod/ref summaries instead of treated conservatively.
func (r *Result) OptimizeInterprocedural() (OptStats, error) {
	ctx, err := opt.NewContext(r.Module, core.DefaultConfig())
	if err != nil {
		return OptStats{}, err
	}
	return opt.RunInterproc(r.Module, ctx), nil
}

// CallGraph builds a sound call graph from the points-to solution:
// indirect calls resolve through points-to sets; calls that may reach (or
// arrive from) external modules are represented explicitly.
func (r *Result) CallGraph() *CallGraph {
	return callgraph.Build(r.Module, r.gen, r.sol)
}

// CallGraph is a sound call graph for an incomplete program.
type CallGraph = callgraph.Graph

// ModRef computes sound per-function mod/ref summaries, transitively
// through the call graph.
func (r *Result) ModRef(cg *CallGraph) *ModRefAnalysis {
	return modref.Compute(r.Module, r.gen, r.sol, cg)
}

// ModRefAnalysis holds per-function memory summaries.
type ModRefAnalysis = modref.Analysis

// FunctionMayModify reports whether calling the named function may modify
// the named global (including modification by external code the function
// may call).
func (r *Result) FunctionMayModify(mr *ModRefAnalysis, fn, global string) (bool, error) {
	f := r.Module.Func(fn)
	if f == nil {
		return false, fmt.Errorf("no function %q", fn)
	}
	g := r.Module.Global(global)
	if g == nil {
		return false, fmt.Errorf("no global %q", global)
	}
	sum := mr.Summaries[f]
	if sum == nil {
		return false, fmt.Errorf("no summary for %q (declaration?)", fn)
	}
	return sum.MayMod(r.sol, r.gen.MemOf[g]), nil
}
