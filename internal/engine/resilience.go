package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/faults"
)

// This file is the engine's resilience layer: retry with backoff for
// transient job failures, a watchdog that force-degrades stuck solves to
// the sound Ω top element, a soft memory guard that tightens budgets
// under heap pressure, and cache-entry integrity verification. All of it
// leans on the paper's central property — the Ω-degraded solution is
// sound for any problem — so every recovery path ends in either the
// exact answer or a sound over-approximation, never silent wrongness.

// RetryPolicy bounds re-solves of transiently failed jobs. A transient
// failure is a recovered panic or an injected fault (see retryable);
// budget-degraded results are successes carrying a sound solution and
// are never retried.
type RetryPolicy struct {
	// Max is how many times a failed job is re-solved. 0 disables retry.
	Max int
	// BaseDelay seeds the exponential backoff: attempt n sleeps about
	// BaseDelay·2ⁿ⁻¹ with jitter. Default 2ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 100ms.
	MaxDelay time.Duration
}

// backoff returns the sleep before retry attempt n (1-based):
// exponential growth capped at MaxDelay, with uniform jitter over the
// upper half of the interval so workers that failed together do not
// retry in lockstep.
func (rp RetryPolicy) backoff(attempt int) time.Duration {
	base := rp.BaseDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	cap := rp.MaxDelay
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// panicError is a recovered job panic carried as an error. Keeping the
// panic value and stack in a dedicated type (rather than a flattened
// fmt.Errorf) lets the retry layer classify panics as transient with
// errors.As while preserving the exact report format callers log.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v\n%s", p.val, p.stack)
}

// retryable reports whether a job failure is worth re-solving: recovered
// panics and injected faults are transient; structural errors (invalid
// configuration, missing module, malformed problem) would fail the same
// way again.
func retryable(err error) bool {
	var pe *panicError
	if errors.As(err, &pe) {
		return true
	}
	return faults.IsFault(err)
}

// solveGuarded runs one solve — exhaustive or demand — under the
// watchdog. Solves with no wall deadline (or no watchdog configured) run
// inline. With both, the solve runs in a child goroutine; if it has not
// answered within WatchdogFactor× its deadline — the budget's own strided
// clock checks should have degraded it long before — the job is answered
// with the sound Ω-degradation built from the problem alone, and the
// stuck solve is abandoned (it keeps its goroutine until it finishes; its
// result is discarded, never cached, so a late answer cannot leak into
// anything).
func (e *Engine) solveGuarded(prob *core.Problem, cfg core.Config, opts core.SolveOptions) (*core.Solution, error) {
	factor := e.opts.WatchdogFactor
	if factor <= 0 || cfg.Budget.Deadline <= 0 {
		return core.Solve(prob, cfg, opts)
	}
	type outcome struct {
		sol *core.Solution
		err error
	}
	ch := make(chan outcome, 1)
	// Watchdogged solves never borrow the worker's arena: an abandoned
	// solve keeps running after the watchdog answers for it, and the
	// worker would hand the same arena to its next job while the zombie
	// still writes into it. The nil arena draws from the shared pool, and
	// a pooled arena abandoned this way is simply never returned.
	opts.Arena = nil
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &panicError{val: r, stack: debug.Stack()}}
			}
		}()
		sol, err := core.Solve(prob, cfg, opts)
		ch <- outcome{sol: sol, err: err}
	}()
	timer := time.NewTimer(time.Duration(factor) * cfg.Budget.Deadline)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.sol, out.err
	case <-timer.C:
		e.mu.Lock()
		e.stats.WatchdogFired++
		e.mu.Unlock()
		e.anomaly("engine.watchdog", "")
		return core.DegradedSolution(prob), nil
	}
}

// sampleMem refreshes the soft memory guard: at most once per
// memSampleEvery, read the heap size and latch whether it exceeds
// Options.MemSoftLimit. Called on the engine loop (every job start), so
// a busy engine tracks pressure continuously and an idle one pays
// nothing.
const memSampleEvery = 100 * time.Millisecond

func (e *Engine) sampleMem() {
	if e.opts.MemSoftLimit == 0 {
		return
	}
	now := time.Now().UnixNano()
	last := e.lastMemSample.Load()
	if now-last < int64(memSampleEvery) || !e.lastMemSample.CompareAndSwap(last, now) {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.memOver.Store(ms.HeapAlloc > e.opts.MemSoftLimit)
}

// tightenBudget lowers b to the componentwise minimum of b and tight
// (treating "unset" as no constraint). The result is never looser than
// either input, so applying it under memory pressure can only degrade
// more solves to Ω sooner — a sound trade of precision for survival.
func tightenBudget(b, tight core.Budget) core.Budget {
	if tight.Deadline > 0 && (b.Deadline == 0 || tight.Deadline < b.Deadline) {
		b.Deadline = tight.Deadline
	}
	if tight.Firings != 0 && (b.Firings == 0 || tight.Firings < b.Firings) {
		b.Firings = tight.Firings
	}
	return b
}

// fingerprintHash is the content hash stored next to cached solutions
// when faults are armed and beside every persisted store entry: FNV-64a
// over the solution's canonical fingerprint text (core.FingerprintHash).
// Lookup recomputes it and refuses to serve a mismatching entry.
func fingerprintHash(sol *core.Solution) uint64 {
	return core.FingerprintHash(sol)
}
