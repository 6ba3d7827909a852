// Package incr orchestrates incremental re-solving: it persists the
// summary and checkpoint of the last solved generation of a module and,
// on resubmission, diffs the new constraint set against the summary to
// decide between three paths —
//
//  1. reuse: the delta is empty (e.g. a pure rename — names are not part
//     of the summary), so the previous solution is returned as-is;
//  2. resume: the delta only adds constraints and the configuration is
//     checkpointable, so the solver resumes from the persisted
//     propagation state and drains only the additions;
//  3. fallback: deletions, retyped variables, or a non-resumable
//     configuration invalidate the monotone state, so a from-scratch
//     solve runs (and re-establishes the checkpoint for the next
//     generation).
//
// States are immutable: Update returns a new State, so callers can keep
// multiple generations alive (the engine's cache keys include the
// generation for exactly this reason).
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
	// Problem is the generation's constraint problem.
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
	sol, err := core.Solve(p, st.Config, opts)
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
			return "config not resumable"
		}
		return "no checkpoint (previous solve degraded)"
	case d.Retyped:
		return "variables retyped"
	case d.Removed() > 0 || p.NumVars() < st.Problem.NumVars():
		return "removals invalidate monotone state"
	case st.Config.Rep == core.EP && p.NumVars() > st.Problem.NumVars():
		return "variable universe grew under explicit-Ω"
	}
	return ""
}
