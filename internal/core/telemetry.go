package core

import (
	"fmt"
	"time"
)

// RuleFirings counts inference-rule applications per rule family of
// Figures 2 and 7. A "firing" is one application of a rule to one
// constraint during solving: one propagation across a simple edge (TRANS
// and its Ω variant), one load or store constraint processed against a
// visited node's pointee batch, one (call, func) pair resolved, or one
// Ω-flag inference. The sum of all counters is what a Budget.Firings cap
// is compared against.
type RuleFirings struct {
	Trans int64 `json:"trans"`
	Load  int64 `json:"load"`
	Store int64 `json:"store"`
	Call  int64 `json:"call"`
	Flag  int64 `json:"flag"`
}

// Total sums the per-rule counters.
func (f RuleFirings) Total() int64 {
	return f.Trans + f.Load + f.Store + f.Call + f.Flag
}

// Add accumulates g into f.
func (f *RuleFirings) Add(g RuleFirings) {
	f.Trans += g.Trans
	f.Load += g.Load
	f.Store += g.Store
	f.Call += g.Call
	f.Flag += g.Flag
}

// Telemetry is the per-solve instrumentation block, exposed on every
// Solution (and aggregated across the worker pool by the engine). All
// duration fields marshal to JSON as integer nanoseconds; the firings
// block is per inference rule.
type Telemetry struct {
	// Offline is the time spent in the offline phases (OVS and the HCD
	// offline analysis) before solving starts.
	Offline time.Duration `json:"offline_ns"`
	// Propagate is the time spent in the main solve loop excluding cycle
	// collapse: worklist management, rule application, and set
	// propagation.
	Propagate time.Duration `json:"propagate_ns"`
	// Collapse is the time spent detecting and collapsing cycles (OCD
	// reachability checks, LCD/HCD collapse, and whole-graph SCC passes).
	Collapse time.Duration `json:"collapse_ns"`
	// Firings counts rule applications per inference rule.
	Firings RuleFirings `json:"firings"`
	// WorklistPeak is the high-water mark of pending worklist entries.
	WorklistPeak int `json:"worklist_peak"`
	// Degraded reports that the solve exhausted its budget and returned
	// the Ω-degraded solution.
	Degraded bool `json:"degraded"`
}

// Merge accumulates u into t: durations and firings sum, the worklist
// high-water mark takes the maximum, and Degraded ors. The engine uses
// this to aggregate telemetry across all jobs of a pool.
//
// Merged durations are CPU-time sums: each solve contributes the time its
// own goroutine spent in each phase, so when solves overlap on a worker
// pool the summed phase durations can (and routinely do) exceed the
// busy-span wall clock of the pool (engine.Stats.Wall). Consumers that
// want elapsed time must use the busy-span measurement; consumers that
// want total work done (e.g. phase-time breakdowns, cost attribution)
// want these sums. The /metrics endpoint exposes both, under
// pip_engine_phase_seconds_total (these sums) and
// pip_engine_busy_seconds_total (busy-span wall).
func (t *Telemetry) Merge(u Telemetry) {
	t.Offline += u.Offline
	t.Propagate += u.Propagate
	t.Collapse += u.Collapse
	t.Firings.Add(u.Firings)
	if u.WorklistPeak > t.WorklistPeak {
		t.WorklistPeak = u.WorklistPeak
	}
	t.Degraded = t.Degraded || u.Degraded
}

func (t Telemetry) String() string {
	s := fmt.Sprintf("offline %v, propagate %v, collapse %v, %d firings (trans %d, load %d, store %d, call %d, flag %d), worklist peak %d",
		t.Offline.Round(time.Microsecond), t.Propagate.Round(time.Microsecond),
		t.Collapse.Round(time.Microsecond), t.Firings.Total(),
		t.Firings.Trans, t.Firings.Load, t.Firings.Store, t.Firings.Call, t.Firings.Flag,
		t.WorklistPeak)
	if t.Degraded {
		s += ", DEGRADED"
	}
	return s
}
