package engine

import (
	"fmt"
	"strings"

	"github.com/pip-analysis/pip/internal/core"
)

// The differential harness: every workload pushed through the engine can
// be re-run through the plain sequential path (a straight loop over
// core.Generate + core.Solve, no pool, no cache) and the two answers
// compared component by component — explicit pointee sets, the Ω flags,
// the escaped set, and cycle representatives, all folded into
// Solution.Fingerprint. The paper validates its 304 solver configurations
// by demanding identical solutions; the harness applies the same oracle to
// concurrency: any scheduling of the worker pool must be solution-identical
// to solving alone.

// DiffOptions configures a differential run.
type DiffOptions struct {
	// WorkerCounts are the parallel pool sizes to compare against the
	// sequential path. Default: 1, 2, 8.
	WorkerCounts []int
	// CachedPass additionally runs a cache-enabled engine twice over the
	// jobs and checks that the second (fully cached) pass is
	// solution-identical too.
	CachedPass bool
}

// Mismatch is one solution disagreement between two solver paths.
type Mismatch struct {
	Job    int
	Path   string
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("job %d, path %q: %s", m.Job, m.Path, m.Detail)
}

// DiffReport is the outcome of a differential run.
type DiffReport struct {
	Jobs       int
	Paths      []string
	Mismatches []Mismatch
}

// OK reports whether every path produced identical solutions.
func (r *DiffReport) OK() bool { return len(r.Mismatches) == 0 }

func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential: %d jobs, paths: %s\n", r.Jobs, strings.Join(r.Paths, ", "))
	if r.OK() {
		b.WriteString("all paths solution-identical\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d mismatches:\n", len(r.Mismatches))
	for i, m := range r.Mismatches {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.Mismatches)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", m)
	}
	return b.String()
}

// jobOutcome is a path's answer for one job, reduced to comparable form.
type jobOutcome struct {
	fingerprint string
	err         string
}

// solveSequential is the reference path: a plain loop with no pool, no
// cache, and no recovery wrapper beyond what the engine's correctness is
// being compared against.
func solveSequential(jobs []Job) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	for i, j := range jobs {
		out[i] = outcomeOf(runSequential(j))
	}
	return out
}

// runSequential executes one job the way pre-engine code did: generate,
// then solve, with panics converted to errors only so that the harness can
// compare failure behaviour too.
func runSequential(j Job) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if j.Gen == nil && j.Module == nil {
		return Result{Err: fmt.Errorf("job has neither Module nor Gen")}
	}
	gen := j.Gen
	if gen == nil {
		gen = core.GenerateWith(j.Module, j.Summaries, nil)
	}
	sol, err := core.Solve(gen.Problem, j.Config, core.SolveOptions{})
	if err != nil {
		return Result{Err: err}
	}
	return Result{Gen: gen, Sol: sol, Duration: sol.Stats.Duration}
}

func outcomeOf(r Result) jobOutcome {
	if r.Err != nil {
		// Panic messages embed stack traces and addresses; classify all
		// failures as "failed" and compare only that both paths failed.
		return jobOutcome{err: "failed"}
	}
	return jobOutcome{fingerprint: r.Sol.Fingerprint()}
}

// compare records mismatches of got against the sequential reference.
func (r *DiffReport) compare(path string, want, got []jobOutcome) {
	for i := range want {
		switch {
		case want[i].err != got[i].err:
			r.Mismatches = append(r.Mismatches, Mismatch{Job: i, Path: path,
				Detail: fmt.Sprintf("failure behaviour differs: sequential %q vs %q", want[i].err, got[i].err)})
		case want[i].fingerprint != got[i].fingerprint:
			r.Mismatches = append(r.Mismatches, Mismatch{Job: i, Path: path,
				Detail: firstDiff(want[i].fingerprint, got[i].fingerprint)})
		}
	}
}

// firstDiff pinpoints the first differing fingerprint line.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at line %d: sequential %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("fingerprint lengths differ: %d vs %d lines", len(al), len(bl))
}

// Differential solves jobs through the sequential reference path and then
// through the parallel engine at each configured worker count (plus an
// optional cached double pass), comparing complete solution fingerprints.
func Differential(jobs []Job, opt DiffOptions) *DiffReport {
	counts := opt.WorkerCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 8}
	}
	rep := &DiffReport{Jobs: len(jobs), Paths: []string{"sequential"}}
	want := solveSequential(jobs)
	for _, w := range counts {
		path := fmt.Sprintf("parallel(workers=%d)", w)
		rep.Paths = append(rep.Paths, path)
		got := outcomesOf(New(Options{Workers: w}).Run(jobs))
		rep.compare(path, want, got)
	}
	if opt.CachedPass {
		eng := New(Options{Workers: counts[len(counts)-1], Cache: true})
		first := outcomesOf(eng.Run(jobs))
		rep.Paths = append(rep.Paths, "cached(pass=1)")
		rep.compare("cached(pass=1)", want, first)
		second := eng.Run(jobs)
		rep.Paths = append(rep.Paths, "cached(pass=2)")
		rep.compare("cached(pass=2)", want, outcomesOf(second))
		for i, r := range second {
			// Degraded results are never cached (see Engine.runJob), so the
			// second pass legitimately re-solves them.
			if r.Err == nil && !r.CacheHit && !r.Degraded && cacheableJob(jobs[i]) {
				rep.Mismatches = append(rep.Mismatches, Mismatch{Job: i, Path: "cached(pass=2)",
					Detail: "expected a cache hit on the second pass"})
			}
		}
	}
	return rep
}

// cacheableJob reports whether the engine can derive a cache key for j.
func cacheableJob(j Job) bool { return j.Key != "" || j.Module != nil }

func outcomesOf(rs []Result) []jobOutcome {
	out := make([]jobOutcome, len(rs))
	for i, r := range rs {
		out[i] = outcomeOf(r)
	}
	return out
}
