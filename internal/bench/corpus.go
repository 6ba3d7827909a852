// Package bench implements the experiment drivers that regenerate every
// table and figure of the paper's evaluation (Section VI): Table III
// (corpus summary), Figure 9 (alias precision), Table V (solver runtime),
// Figure 10 (per-file runtime ratios), Table VI (explicit pointees), and
// the headline numbers quoted in the text. All drivers run on the parallel
// batch-analysis engine (internal/engine); per-file solves fan out across
// the corpus, and results are deterministic in corpus order regardless of
// the worker count.
package bench

import (
	"fmt"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/workload"
)

// CorpusFile is one benchmark file with its phase-1 output.
type CorpusFile struct {
	workload.File
	Gen *core.Gen
	// Hash is the module's content hash, the base of engine cache keys.
	Hash string
}

// Corpus is the generated benchmark corpus with constraints built once
// (phase 1 is identical across solver configurations, so it is hoisted out
// of the timed region, as in the paper, which times the solving phase).
type Corpus struct {
	Opts  workload.Options
	Files []CorpusFile
	// Workers bounds the engine pool used by the measurement drivers;
	// <= 0 means GOMAXPROCS.
	Workers int
	// Budget bounds every solve the drivers run; files that exhaust it
	// produce Ω-degraded (still sound) rows. The zero value means none.
	Budget core.Budget
	// CacheEntries bounds the solution cache of caching drivers; <= 0
	// means unbounded (fine for a bounded corpus, wrong for a daemon).
	CacheEntries int
	// Trace, when set, records job and solve spans from every engine the
	// drivers create (pipbench -trace).
	Trace *obs.Trace

	// engines tracks every engine the drivers created, so EngineStats can
	// aggregate pool counters across a whole measurement run.
	engines []*engine.Engine
}

// BuildCorpus generates the corpus and runs constraint generation with the
// default worker pool.
func BuildCorpus(opts workload.Options) *Corpus {
	return BuildCorpusParallel(opts, 0)
}

// BuildCorpusParallel is BuildCorpus with an explicit worker bound. Module
// generation is sequential (it is one seeded PRNG stream); constraint
// generation and content hashing, the expensive parts, fan out.
func BuildCorpusParallel(opts workload.Options, workers int) *Corpus {
	files := workload.GenerateCorpus(opts)
	c := &Corpus{Opts: opts, Workers: workers, Files: make([]CorpusFile, len(files))}
	engine.RunIndexed(len(files), workers, func(i int) {
		c.Files[i] = CorpusFile{
			File: files[i],
			Gen:  core.Generate(files[i].Module),
			Hash: engine.ModuleHash(files[i].Module),
		}
	})
	return c
}

// engineFor returns a fresh engine sized for this corpus's drivers and
// remembers it for EngineStats aggregation.
func (c *Corpus) engineFor(cache bool) *engine.Engine {
	e := engine.New(engine.Options{Workers: c.Workers, Cache: cache, CacheEntries: c.CacheEntries, Budget: c.Budget, Trace: c.Trace})
	c.engines = append(c.engines, e)
	return e
}

// EngineStats aggregates the pool counters (and solver telemetry) of every
// engine the drivers have created so far.
func (c *Corpus) EngineStats() engine.Stats {
	var st engine.Stats
	for _, e := range c.engines {
		st.Merge(e.Stats())
	}
	return st
}

// Jobs builds one engine job per corpus file under cfg, keyed by content
// hash so caching engines can reuse solutions across passes. The corpus
// budget is folded into the configuration here so the cache key reflects
// the effective (budgeted) configuration.
func (c *Corpus) Jobs(cfg core.Config, reps int) []engine.Job {
	if cfg.Budget.IsZero() {
		cfg.Budget = c.Budget
	}
	jobs := make([]engine.Job, len(c.Files))
	for i, f := range c.Files {
		jobs[i] = engine.Job{
			Key:    engine.CacheKey(f.Hash, cfg),
			Gen:    f.Gen,
			Config: cfg,
			Reps:   reps,
		}
	}
	return jobs
}

// SuiteNames returns the suite names in corpus order.
func (c *Corpus) SuiteNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, f := range c.Files {
		if !seen[f.Suite] {
			seen[f.Suite] = true
			names = append(names, f.Suite)
		}
	}
	return names
}

// String summarizes the corpus.
func (c *Corpus) String() string {
	instrs := 0
	for _, f := range c.Files {
		instrs += f.Module.NumInstrs()
	}
	return fmt.Sprintf("corpus: %d files, %d IR instructions (scale=%.3g, sizeScale=%.3g)",
		len(c.Files), instrs, c.Opts.Scale, c.Opts.SizeScale)
}

// solveOnce solves one file under cfg and returns the solution.
func solveOnce(f CorpusFile, cfg core.Config) *core.Solution {
	return core.MustSolve(f.Gen.Problem, cfg)
}

// mustResults converts engine failures into panics: corpus files are
// generated valid, so a failed job is a bug, and the drivers keep the old
// MustSolve semantics.
func mustResults(rs []engine.Result) []engine.Result {
	for i, r := range rs {
		if r.Err != nil {
			panic(fmt.Sprintf("bench: corpus job %d failed: %v", i, r.Err))
		}
	}
	return rs
}
