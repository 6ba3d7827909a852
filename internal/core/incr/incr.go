// Package incr orchestrates incremental re-solving: it persists the
// summary and checkpoint of the last solved generation of a module and,
// on resubmission, diffs the new constraint set against the summary to
// decide between three paths —
//
//  1. reuse: the delta is empty (e.g. a resubmission of the same module,
//     or a problem that only renames variables — names are not part of
//     the summary), so the previous solution is returned as-is;
//  2. resume: the delta only adds constraints and the configuration is
//     checkpointable, so the solver resumes from the persisted
//     propagation state and drains only the additions;
//  3. fallback: deletions, retyped variables, or a non-resumable
//     configuration invalidate the monotone state, so a from-scratch
//     solve runs on the compacted problem (core.Problem.Compact) and
//     re-establishes the checkpoint for the next generation.
//
// The diff compares variables by ID, so resubmissions must keep each
// variable's ID: the engine generates every version of a module against
// the previous generation's problem (core.GenerateWith), which numbers
// surviving names as before and appends new ones.
//
// States are immutable: Update returns a new State, so callers can keep
// multiple generations alive.
package incr

import (
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/obs"
)

// State is one solved generation of a module: the problem, its diffable
// summary, the solution, and — when the configuration allows it — the
// checkpointed propagation state the next generation can resume from.
type State struct {
	// Generation counts solves in this lineage, starting at 0.
	Generation int
	// Config is the solve configuration; every generation uses the same
	// one (a config change is a different lineage).
	Config core.Config
	// Problem is the generation's constraint problem: the resubmitted
	// one, or its compaction when the generation fell back.
	Problem *core.Problem
	// Summary is Problem's canonical diffable form.
	Summary *core.ProblemSummary
	// Sol is the generation's solution.
	Sol *core.Solution

	ck *core.Checkpoint
}

// UpdateStats reports which path an Update took and how much work it
// reused.
type UpdateStats struct {
	// Generation is the new state's generation number.
	Generation int `json:"generation"`
	// ReusedSolution is set when the delta was empty and the previous
	// solution was returned without solving.
	ReusedSolution bool `json:"reused_solution"`
	// Resumed is set when the solve resumed from the checkpoint instead
	// of starting from scratch.
	Resumed bool `json:"resumed"`
	// FallbackReason is non-empty when a from-scratch solve ran: why the
	// incremental path was unavailable.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Added and Removed count constraint-level delta entries (flag bits
	// included); Reused counts the new problem's constraints carried over
	// from the previous generation, and FullConstraints the new problem's
	// total.
	Added           int `json:"added"`
	Removed         int `json:"removed"`
	Reused          int `json:"reused"`
	FullConstraints int `json:"full_constraints"`
}

// The fallback reasons Update and the engine report in
// UpdateStats.FallbackReason. A resume the checkpoint refuses reports the
// checkpoint's own error instead.
const (
	FallbackInitial      = "initial solve"
	FallbackNotResumable = "config not resumable"
	FallbackNoCheckpoint = "no checkpoint (previous solve degraded)"
	FallbackRetyped      = "variables retyped"
	FallbackRemovals     = "removals invalidate monotone state"
	FallbackOmegaGrowth  = "variable universe grew under explicit-Ω"
)

// FallbackLabels is the closed set of metric labels FallbackLabel maps
// fallback reasons to.
var FallbackLabels = []string{
	"initial", "retyped", "removals", "explicit_omega_growth",
	"not_resumable", "no_checkpoint", "resume_refused",
}

// FallbackLabel maps a fallback reason to its label in FallbackLabels.
// Any reason that is not one of the Fallback constants is a refused
// resume, so the label set stays fixed whatever the checkpoint reports.
func FallbackLabel(reason string) string {
	switch reason {
	case FallbackInitial:
		return "initial"
	case FallbackRetyped:
		return "retyped"
	case FallbackRemovals:
		return "removals"
	case FallbackOmegaGrowth:
		return "explicit_omega_growth"
	case FallbackNotResumable:
		return "not_resumable"
	case FallbackNoCheckpoint:
		return "no_checkpoint"
	}
	return "resume_refused"
}

// Checkpointed reports whether the state carries resumable propagation
// state for the next Update.
func (st *State) Checkpointed() bool { return st.ck != nil }

// New solves p from scratch under cfg and establishes the first
// generation, recording the solve onto tk (the zero Track records
// nothing). The solve is checkpointed when cfg is core.Resumable (and
// the solve completed exactly), so the following Update can resume.
func New(p *core.Problem, cfg core.Config, tk obs.Track) (*State, error) {
	var ck *core.Checkpoint
	sol, err := core.Solve(p, cfg, core.SolveOptions{Trace: tk, Checkpoint: &ck})
	if err != nil {
		return nil, err
	}
	return &State{
		Config:  cfg,
		Problem: p,
		Summary: core.BuildSummary(p),
		Sol:     sol,
		ck:      ck,
	}, nil
}

// Update solves the resubmitted problem p, reusing as much of st as the
// summary delta allows, and records any solve onto tk. st is not
// modified; the returned State is the new generation.
func (st *State) Update(p *core.Problem, tk obs.Track) (*State, *UpdateStats, error) {
	sum := core.BuildSummary(p)
	d := core.DiffSummaries(st.Summary, sum)
	stats := &UpdateStats{
		Generation:      st.Generation + 1,
		Added:           d.Added(),
		Removed:         d.Removed(),
		FullConstraints: sum.NumConstraints(),
	}
	stats.Reused = stats.FullConstraints - stats.Added
	next := &State{
		Generation: st.Generation + 1,
		Config:     st.Config,
		Problem:    p,
		Summary:    sum,
	}

	if d.Empty() {
		// Constraint-identical resubmission (renames included): the old
		// solution answers the new problem; only the name table differs.
		stats.ReusedSolution = true
		next.Sol, next.ck = st.Sol.WithProblem(p), st.ck
		return next, stats, nil
	}

	opts := core.SolveOptions{Trace: tk, Checkpoint: &next.ck}
	stats.FallbackReason = st.resumeBlocked(d, p)
	if stats.FallbackReason == "" {
		sol, err := st.ck.ResumeAdded(p, d, opts)
		if err == nil {
			next.Sol, stats.Resumed = sol, true
			return next, stats, nil
		}
		// ResumeAdded re-checks its preconditions; any refusal falls back
		// to the sound from-scratch path rather than failing the request.
		stats.FallbackReason = err.Error()
	}
	// A from-scratch solve owes nothing to the old numbering, so it runs on
	// the compacted problem and dead variables never outlive a fallback.
	next.Problem = p.Compact()
	if next.Problem != p {
		next.Summary = core.BuildSummary(next.Problem)
	}
	sol, err := core.Solve(next.Problem, st.Config, opts)
	if err != nil {
		return nil, nil, err
	}
	next.Sol, stats.Reused = sol, 0
	return next, stats, nil
}

// resumeBlocked explains why the incremental path cannot run for this
// delta, or returns "" when it can.
func (st *State) resumeBlocked(d *core.SummaryDelta, p *core.Problem) string {
	switch {
	case st.ck == nil:
		if !core.Resumable(st.Config) {
			return FallbackNotResumable
		}
		return FallbackNoCheckpoint
	case d.Retyped:
		return FallbackRetyped
	case d.Removed() > 0 || p.NumVars() < st.Problem.NumVars():
		return FallbackRemovals
	case st.Config.Rep == core.EP && p.NumVars() > st.Problem.NumVars():
		return FallbackOmegaGrowth
	}
	return ""
}
