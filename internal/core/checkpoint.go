package core

import (
	"errors"
	"fmt"

	"github.com/pip-analysis/pip/internal/bitset"
)

// This file implements checkpointed solves: the split between "constraint
// generation" and "propagation state" that lets a converged solve be
// resumed after the constraint set grows, instead of re-propagating from
// scratch. A Checkpoint snapshots the converged solver state (points-to
// sets, simple-edge graph, flags, escape facts); ResumeAdded restores it,
// re-seeds the (idempotent) constraint tables from the new problem, pushes
// only the nodes touched by the added constraints, and drains to the new
// fixpoint.
//
// Soundness and exactness rest on two properties of resumable
// configurations:
//
//  1. Monotonicity. Every restored fact is derivable from the old
//     constraint set, which is a subset of the new one, so the restored
//     state is a pre-fixpoint of the new system. Draining a monotone
//     worklist from a pre-fixpoint reaches the least fixpoint — the same
//     solution a from-scratch solve computes.
//
//  2. Identity representatives. Resumable configurations perform no
//     unification (no OVS, no online/offline cycle collapse), so find(v)
//     == v on both the checkpointed and the from-scratch side and the
//     snapshot can be indexed by plain variable id. This also makes the
//     resumed Fingerprint bit-identical, not merely query-equal — the
//     property the edit-script differential suite asserts.
//
// Deltas with removals (or retyped variables) invalidate property 1 —
// facts may no longer be derivable — and PIP rules 2/4 shrink explicit
// sets and edges mid-solve, breaking the pre-fixpoint argument; both force
// the caller (internal/core/incr) to fall back to a from-scratch solve.

// ErrNotResumable reports that a checkpoint cannot be resumed for the
// given delta; callers fall back to a from-scratch solve.
var ErrNotResumable = errors.New("core: checkpoint cannot resume this delta")

// Resumable reports whether solves under cfg can be checkpointed and
// resumed. The configuration must be a pure least-fixpoint computation:
// no unification (OVS/OCD/HCD/LCD collapse representatives, making the
// snapshot's identity indexing wrong), no PIP additions (rules 2 and 4
// shrink explicit sets and edges non-monotonically), not the wave solver
// (its per-wave SCC collapse unifies), and no budget (a resumed solve
// fires fewer rules than a from-scratch one, so degrade decisions — and
// with them the answer — would depend on solve history).
func Resumable(cfg Config) bool {
	return !cfg.OVS && !cfg.OCD && !cfg.HCD && !cfg.LCD && !cfg.PIP &&
		cfg.Solver != Wave && cfg.Budget.IsZero()
}

// Checkpoint is the propagation state of a converged solve, detached from
// the solver's arena so it survives arbitrary later solves. It is
// immutable after capture: resuming clones out of it, so one checkpoint
// can seed many resumes (and the chain of generations in incr.State).
type Checkpoint struct {
	cfg   Config
	nvars int   // problem variable count (excludes Ω)
	n     int   // solver variable count (includes Ω in EP mode)
	omega VarID // materialized Ω (EP) or NoVar (IP)

	pts      []*bitset.Set
	succ     []*bitset.Set
	repFlags []Flags
	external []bool
	impFunc  []bool
}

// Config returns the configuration the checkpoint was solved under; a
// resume must use the same configuration.
func (ck *Checkpoint) Config() Config { return ck.cfg }

// NumVars returns the checkpointed problem's variable count.
func (ck *Checkpoint) NumVars() int { return ck.nvars }

// ApproxBytes estimates the checkpoint's retained memory (set storage
// only; the flat tables are small by comparison).
func (ck *Checkpoint) ApproxBytes() int {
	b := len(ck.repFlags) + 3*len(ck.external)
	for _, s := range ck.pts {
		if s != nil {
			b += s.ApproxBytes()
		}
	}
	for _, s := range ck.succ {
		if s != nil {
			b += s.ApproxBytes()
		}
	}
	return b
}

// captureCheckpoint snapshots the solver's converged state. Points-to
// sets are shared, not cloned: they escape into the returned Solution,
// where they are immutable after the solve (queries only read, and
// ResumeAdded clones before mutating), so the Solution and the Checkpoint
// of one solve safely alias the same sets. Simple-edge sets are stolen
// from the arena rather than cloned — capture runs after finish, nothing
// reads the solver's succ table afterwards, and a nil arena slot just
// means the next solve allocates that set fresh. The remaining flat
// tables are arena scratch the next solve overwrites, so those are
// copied.
func captureCheckpoint(s *solver) *Checkpoint {
	ck := &Checkpoint{
		cfg:      s.cfg,
		nvars:    s.p.NumVars(),
		n:        s.n,
		omega:    s.omega,
		pts:      make([]*bitset.Set, s.n),
		succ:     make([]*bitset.Set, s.n),
		repFlags: append([]Flags(nil), s.repFlags...),
		external: append([]bool(nil), s.external...),
		impFunc:  append([]bool(nil), s.impFunc...),
	}
	for i, set := range s.pts {
		if set != nil && !set.Empty() {
			ck.pts[i] = set
		}
	}
	for i, set := range s.succ {
		if set != nil && !set.Empty() {
			ck.succ[i] = set
			s.succ[i] = nil // steal: s.succ aliases the arena's table
		}
	}
	return ck
}

// ResumeAdded solves prob — the checkpointed problem plus the added
// constraints described by d — by restoring the checkpoint and draining
// only from the additions, through the same lifecycle as Solve. d must be
// the summary delta from the checkpointed problem to prob and must be
// Monotone. The solution is bit-identical to a from-scratch solve of
// prob; opts.Checkpoint, when set, receives the checkpoint for the next
// generation.
//
// ErrNotResumable is returned (wrapped) when the delta cannot be resumed:
// non-monotone edits, a grown variable universe under the explicit-Ω
// representation (Ω's id is the variable count, so appending variables
// would shift it out from under the snapshot), or demand roots (a slice
// is not the checkpointed problem).
func (ck *Checkpoint) ResumeAdded(prob *Problem, d *SummaryDelta, opts SolveOptions) (*Solution, error) {
	if opts.Checkpoint != nil {
		*opts.Checkpoint = nil
	}
	switch {
	case !d.Monotone():
		return nil, fmt.Errorf("%w: delta removes or retypes constraints", ErrNotResumable)
	case prob.NumVars() < ck.nvars:
		return nil, fmt.Errorf("%w: variable universe shrank", ErrNotResumable)
	case ck.cfg.Rep == EP && prob.NumVars() != ck.nvars:
		return nil, fmt.Errorf("%w: variable universe grew under the explicit-Ω representation", ErrNotResumable)
	case len(opts.Demand) > 0:
		return nil, fmt.Errorf("%w: demand roots", ErrNotResumable)
	}
	return solve(prob, ck.cfg, opts, ck, d)
}

// resume is phase 2 of a resumed solve: restore the converged
// propagation state, re-seed, and drain from the additions in d.
func (s *solver) resume(ck *Checkpoint, d *SummaryDelta) {
	// Points-to and successor sets are shared copy-on-write: the drain
	// clones a set the moment it first mutates it (ptsOf/ownSucc/addSucc),
	// so the checkpoint and its Solution stay valid while a small edit
	// only pays for the handful of sets it actually changes. The flat
	// tables copy over the snapshot prefix — appended variables (IP mode)
	// keep their zero state and are populated by the added constraints.
	s.ptsShared = make([]bool, s.n)
	s.succShared = make([]bool, s.n)
	for i, set := range ck.pts {
		if set != nil {
			s.pts[i] = set
			s.ptsShared[i] = true
		}
	}
	for i, set := range ck.succ {
		if set != nil {
			s.succ[i] = set
			s.succShared[i] = true
		}
	}
	copy(s.repFlags, ck.repFlags)
	copy(s.external, ck.external)
	copy(s.impFunc, ck.impFunc)

	// The worklist must exist before seeding: unlike a from-scratch solve
	// (whose initial push-all covers everything), resume relies on the
	// enqueues that seed-time inferences make for newly flagged variables.
	if s.cfg.Solver != Naive {
		s.wl = newWorklist(s.cfg.Order, s)
	}
	// Re-seed from the full new problem. All set/flag installs are
	// idempotent on the restored state (no counters move, nothing is
	// re-enqueued for old facts), while the attachment tables
	// (loadTo/storeFrom/callsAt/funcsAt) — arena scratch, reset by
	// newSolver — are rebuilt completely, landing at the same indices as
	// the original solve because representatives are the identity.
	s.seed()
	s.seedResume(d)
	switch s.cfg.Solver {
	case Naive:
		s.solveNaive()
	default:
		s.drainWorklist()
	}
}

// detachShared drops the arena succ slots still aliasing checkpoint sets.
func (s *solver) detachShared() {
	for i, sh := range s.succShared {
		if sh {
			s.succ[i] = nil
		}
	}
}

// kick schedules v's representative for a full revisit.
func (s *solver) kick(v VarID) {
	if v == NoVar {
		return
	}
	r := s.find(v)
	s.fullVisit[r] = true
	s.enqueue(r)
}

// seedResume schedules exactly the work the added constraints introduce.
// seed() has already installed them; what is missing relative to a
// from-scratch solve is the initial push-all, so each added constraint's
// driver node is kicked for a full visit, which re-fires the node's
// complex constraints over its (restored) points-to set.
func (s *solver) seedResume(d *SummaryDelta) {
	touched := false
	for _, e := range d.AddedBase {
		s.kick(e.Dst)
		touched = true
	}
	for _, e := range d.AddedSimple {
		// The new edge was installed without propagation (addEdgeInit);
		// kicking the source flows its full set across.
		s.kick(e.Src)
		s.kick(e.Dst)
		touched = true
	}
	for _, e := range d.AddedLoad {
		s.kick(e.Src) // Dst ⊇ *Src attaches at the pointer Src
		touched = true
	}
	for _, e := range d.AddedStore {
		s.kick(e.Dst) // *Dst ⊇ Src attaches at the pointer Dst
		touched = true
	}
	for _, c := range d.AddedCalls {
		s.kick(c.Target)
		touched = true
	}
	revisitCalls := len(d.AddedFuncs) > 0
	for _, fc := range d.AddedFuncs {
		s.kick(fc.F)
		if s.cfg.Rep == IP && s.external[fc.F] {
			// From scratch, markExternallyAccessible(F) applies every
			// function constraint's escape effects; on resume F is already
			// marked (idempotent early-out), so apply the new constraint's
			// effects directly.
			if fc.Ret != NoVar && s.ptrCompat[s.find(fc.Ret)] {
				s.setFlag(fc.Ret, FlagEscapedPointees)
			}
			for _, a := range fc.Args {
				if a != NoVar && s.ptrCompat[s.find(a)] {
					s.setFlag(a, FlagPointsExt)
				}
			}
		}
		touched = true
	}
	for _, fe := range d.AddedFlags {
		// seed() installed the flag itself (and markExternallyAccessible
		// already handled newly external variables); the kick re-fires the
		// variable's own rules under the new flag.
		s.kick(fe.Var)
		if fe.Bits&FlagImpFunc != 0 {
			revisitCalls = true
		}
		touched = true
	}
	if revisitCalls {
		// A new function constraint (or imported-function mark) can change
		// the meaning of any already-resolved indirect call; revisit every
		// node carrying call constraints.
		for r := 0; r < s.n; r++ {
			if len(s.callsAt[r]) > 0 {
				s.kick(VarID(r))
			}
		}
	}
	if s.cfg.Rep == EP && touched {
		// Ω is the hub every flag constraint routes through; a full Ω
		// visit re-fires its self load/store/call rules over any pointees
		// the additions contributed.
		s.kick(s.omega)
	}
}
