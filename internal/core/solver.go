package core

import (
	"time"

	"github.com/pip-analysis/pip/internal/bitset"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/uf"
)

// funcC is a solver-local function constraint. In EP mode, imported
// functions carry external=true, standing for Func(f, Ω, ⋯, Ω).
type funcC struct {
	ret      VarID
	args     []VarID
	external bool
}

// callC is a solver-local call constraint. In EP mode, the Ω node carries
// one callC with external=true, standing for Call(Ω, Ω, ⋯): external
// modules may call every function they can reach.
type callC struct {
	ret      VarID
	args     []VarID
	external bool
}

// solver holds all mutable constraint-graph state during a solve.
type solver struct {
	cfg Config
	p   *Problem

	n     int   // variable count, including Ω in EP mode
	omega VarID // materialized Ω (EP) or NoVar (IP)

	forest *uf.Forest
	// pts[r] is Sol_e of representative r (nil for pointer-incompatible
	// variables, which have no points-to sets).
	pts []*bitset.Set
	// ptsShared[r] marks pts[r] as aliasing a previous generation's
	// checkpoint (copy-on-write restore): the set must be cloned before
	// its first mutation so the old Solution stays valid. Nil outside
	// resumed solves, making every ownership check a no-op from scratch.
	ptsShared []bool
	// succShared[r] is the same copy-on-write mark for succ[r]. Shared
	// successor sets additionally alias arena slots, so a resumed solve
	// detaches them before returning (see detachShared).
	succShared []bool
	// dif[r] is the difference-propagation delta of representative r.
	dif []*bitset.Set
	// succ[r] holds simple-edge successors of r (possibly stale ids).
	succ []*bitset.Set
	// loadTo[r] lists p with p ⊇ *r; storeFrom[r] lists q with *r ⊇ q.
	loadTo    [][]VarID
	storeFrom [][]VarID
	// callsAt[r] lists call constraints whose target is r.
	callsAt [][]callC
	// funcsAt[x] lists function constraints on the (never-merged pointee
	// identity) variable x.
	funcsAt [][]funcC

	// Pointee-side facts, per original variable id.
	external []bool // Ω ⊒ {x}
	impFunc  []bool // ImpFunc(x), IP mode

	// Pointer-side flags, per representative.
	repFlags []Flags

	// fullVisit[r] forces the next visit of r to iterate the full Sol_e
	// instead of the difference set (used when flags or topology change).
	fullVisit []bool

	ptrCompat []bool

	// ar is the scratch arena backing this solver's tables; iterBuf is
	// the visit-level pointee snapshot buffer it owns (visit is not
	// reentrant, so one buffer suffices).
	ar      *Arena
	iterBuf []uint32

	wl worklist
	// progress records whether any constraint was inferred since it was
	// last reset; the naive solver uses it to detect its fixed point.
	progress bool
	stats    SolveStats
	tel      Telemetry

	// tk is the solve's trace lane (zero when tracing is off: every
	// recording call below is then a single pointer test). The running
	// counters feed the sampled convergence profile — they are cheap
	// plain increments maintained unconditionally so the traced and
	// untraced solves execute the same code.
	tk obs.Track
	// pointeeAdds counts successful explicit-pointee insertions (growth
	// of ∑|Sol_e|, ignoring unification merges).
	pointeeAdds int64
	// extMarks counts variables marked externally accessible (growth of
	// |E|, the implicit side; IP mode).
	extMarks int64
	// flagMarks counts pointer-side flag inferences (p ⊒ Ω and friends).
	flagMarks int64
	// loopIters strides the convergence-profile sampling.
	loopIters uint64

	// Budget state: fired mirrors tel.Firings.Total() as a single counter
	// cheap enough to compare on every loop iteration; aborted latches
	// budget exhaustion; deadline is the absolute wall-clock cutoff (zero
	// time when no deadline is set); budgetTick rate-limits time.Now().
	fired      int64
	aborted    bool
	deadline   time.Time
	budgetTick uint32
	// collapseDepth guards the cycle-collapse timer against nested spans.
	collapseDepth int

	// LCD bookkeeping: edges already considered for lazy cycle detection.
	lcdDone map[uint64]bool
	// HCD offline table: hcdRef[p] = r means pointees of p collapse into r.
	hcdRef map[VarID]VarID
	// pendingHCDUnions defers unions discovered while merging HCD table
	// entries during unify; the worklist loop drains them.
	pendingHCDUnions [][2]VarID

	// scratch for cycle detection.
	visitMark []uint32
	markGen   uint32
}

// SolveOptions selects how a solve runs. The zero value is a plain
// exhaustive, untraced solve on pooled scratch memory.
type SolveOptions struct {
	// Trace is the lane the solve records onto: phase spans (offline with
	// OVS/HCD children, the solve loop, cycle collapses), per-collapse SCC
	// events, wave boundaries, budget-stride samples, and the sampled
	// convergence profile (worklist depth and explicit/implicit growth
	// over time). The zero Track records nothing; traced and untraced
	// solves run the same solver code, so tracing never changes the
	// solution.
	Trace obs.Track
	// Arena supplies all solver scratch state. Nil borrows one from an
	// internal pool for the duration of the solve; engine workers pass
	// their own so one allocation set is reused across every job they
	// process. The arena never changes the solution — only where scratch
	// memory comes from.
	Arena *Arena
	// Checkpoint, when non-nil, receives the solve's resume checkpoint
	// (see ResumeAdded), or nil when there is none: the configuration is
	// not Resumable, the solve degraded (a degraded solve has no
	// propagation state worth keeping), or it was a demand solve.
	Checkpoint **Checkpoint
	// Demand, when non-empty, solves only the constraint components
	// containing these root variables; every other variable answers the
	// sound Ω (see demand.go and Solution.Demand).
	Demand []VarID
}

// Solve runs analysis phase 2 on prob under configuration cfg; opts
// selects tracing, scratch memory, checkpoint capture and demand slicing.
func Solve(prob *Problem, cfg Config, opts SolveOptions) (*Solution, error) {
	if opts.Checkpoint != nil {
		*opts.Checkpoint = nil
	}
	if len(opts.Demand) > 0 {
		return solveDemand(prob, cfg, opts)
	}
	return solve(prob, cfg, opts, nil, nil)
}

// solve is the one solve lifecycle behind Solve and ResumeAdded:
// validation, the arena borrow and return, the top-level span, phase 2
// from scratch (ck nil) or resumed from ck with the additions d, abort to
// the Ω-degraded solution, telemetry, Stats.Duration, and the optional
// checkpoint capture for the next generation.
func solve(prob *Problem, cfg Config, opts SolveOptions, ck *Checkpoint, d *SummaryDelta) (*Solution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	// Chaos hook: the per-solve injection point sits after validation, so
	// an injected error is indistinguishable from a real internal solver
	// failure to the layers above (engine retry, serve error mapping).
	// Only from-scratch solves are injection points.
	if ck == nil {
		if err := faults.Inject(faults.CoreSolve); err != nil {
			return nil, err
		}
	}
	ar := opts.Arena
	if ar == nil {
		pooled := arenaPool.Get().(*Arena)
		// The deferred Put runs when this solve stops using the arena —
		// normal return or unwinding panic — and an abandoned (watchdogged)
		// solve reaches it only when it actually finishes, so an arena is
		// never pooled while in use. Dirt left by a panic is harmless:
		// reset-at-acquire clears everything before the next solve reads it.
		defer arenaPool.Put(pooled)
		ar = pooled
	}
	start := time.Now()
	s := newSolver(prob, cfg, ar)
	tk := opts.Trace
	s.tk = tk
	if cfg.Budget.Deadline > 0 {
		s.deadline = start.Add(cfg.Budget.Deadline)
	}
	var solveSpan obs.Span
	if ck == nil {
		solveSpan = tk.Begin("solve",
			obs.S("config", cfg.String()),
			obs.N("vars", int64(prob.NumVars())),
			obs.N("constraints", int64(prob.NumConstraints())))
	} else {
		solveSpan = tk.Begin("resume",
			obs.S("config", cfg.String()),
			obs.N("vars", int64(prob.NumVars())),
			obs.N("added", int64(d.Added())))
		// Restoring makes the arena's succ table alias checkpoint-owned
		// sets. captureCheckpoint detaches every non-empty slot; this defer
		// also detaches them on abort or panic, so the next solve's in-place
		// arena reset can never clear a live checkpoint's sets. (It runs
		// before the arena goes back to the pool.)
		defer s.detachShared()
	}
	offSpan := tk.Begin("offline")
	if cfg.OVS {
		sp := tk.Begin("ovs")
		s.runOVS()
		sp.End(obs.N("unifications", int64(s.stats.Unifications)))
	}
	if cfg.HCD {
		sp := tk.Begin("hcd-offline")
		s.runHCDOffline()
		sp.End(obs.N("table", int64(len(s.hcdRef))))
	}
	offSpan.End()
	s.tel.Offline = time.Since(start)
	solveStart := time.Now()
	propSpan := tk.Begin("propagate")
	if ck == nil {
		s.seed()
		switch cfg.Solver {
		case Naive:
			s.solveNaive()
		case Wave:
			s.solveWave()
		default:
			s.solveWorklist()
		}
	} else {
		s.resume(ck, d)
	}
	propSpan.End(obs.N("firings", s.fired), obs.N("visits", int64(s.stats.Visits)))
	ar.iterBuf = s.iterBuf[:0] // hand the grown snapshot buffer back for reuse
	s.recycleWorklist()
	// Propagation time is the solve loop minus the collapse spans timed
	// inside it.
	if s.tel.Propagate = time.Since(solveStart) - s.tel.Collapse; s.tel.Propagate < 0 {
		s.tel.Propagate = 0
	}
	var sol *Solution
	if s.aborted {
		// Budget exhausted: fall back to the trivially sound Ω-degraded
		// solution, built from the problem alone so the answer does not
		// depend on where the abort happened.
		sol = degradedSolution(prob)
		sol.Stats = s.stats
		sol.Stats.ExplicitPointees = 0
	} else {
		fin := tk.Begin("finish")
		sol = s.finish()
		fin.End()
		if opts.Checkpoint != nil && Resumable(cfg) {
			*opts.Checkpoint = captureCheckpoint(s)
		}
	}
	s.sampleConvergence()
	s.tel.Degraded = sol.Degraded
	sol.Telemetry = s.tel
	sol.Stats.Duration = time.Since(start)
	solveSpan.End(
		obs.N("degraded", boolArg(sol.Degraded)),
		obs.N("explicit_pointees", int64(sol.Stats.ExplicitPointees)))
	return sol, nil
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sampleConvergence records one convergence-profile sample: current
// worklist depth, cumulative explicit-pointee insertions, external marks
// (the implicit side), flag inferences, and total rule firings.
func (s *solver) sampleConvergence() {
	if !s.tk.Enabled() {
		return
	}
	depth := 0
	if s.wl != nil {
		depth = s.wl.size()
	}
	s.tk.Count("worklist_depth", int64(depth))
	s.tk.Count("explicit_pointees", s.pointeeAdds)
	s.tk.Count("escaped_marks", s.extMarks)
	s.tk.Count("flag_marks", s.flagMarks)
	s.tk.Count("firings", s.fired)
}

// MustSolve is Solve that panics on error; for tests and examples.
func MustSolve(prob *Problem, cfg Config) *Solution {
	sol, err := Solve(prob, cfg, SolveOptions{})
	if err != nil {
		panic(err)
	}
	return sol
}

func newSolver(prob *Problem, cfg Config, ar *Arena) *solver {
	n := prob.NumVars()
	omega := NoVar
	if cfg.Rep == EP {
		omega = VarID(n)
		n++
	}
	ar.reset(n)
	// pts and external escape into the returned Solution, so they are the
	// two tables that must always be freshly allocated; everything else is
	// arena-backed scratch that dies with the solver.
	s := &solver{
		cfg:       cfg,
		p:         prob,
		n:         n,
		omega:     omega,
		forest:    ar.forest,
		pts:       make([]*bitset.Set, n),
		succ:      ar.succ,
		loadTo:    ar.loadTo,
		storeFrom: ar.storeFrom,
		callsAt:   ar.callsAt,
		funcsAt:   ar.funcsAt,
		external:  make([]bool, n),
		impFunc:   ar.impFunc,
		repFlags:  ar.repFlags,
		fullVisit: ar.fullVisit,
		ptrCompat: ar.ptrCompat,
		visitMark: ar.visitMark,
		ar:        ar,
		iterBuf:   ar.iterBuf[:0],
	}
	if cfg.DP {
		s.dif = ar.dif
	}
	copy(s.ptrCompat, prob.PtrCompat)
	if omega != NoVar {
		s.ptrCompat[omega] = true
	}
	return s
}

func (s *solver) find(v VarID) VarID { return s.forest.Find(v) }

func (s *solver) ptsOf(r VarID) *bitset.Set {
	if s.pts[r] == nil {
		s.pts[r] = &bitset.Set{}
	} else if s.ptsShared != nil && s.ptsShared[r] {
		s.pts[r] = s.pts[r].Clone()
		s.ptsShared[r] = false
	}
	return s.pts[r]
}

func (s *solver) difOf(r VarID) *bitset.Set {
	if s.dif[r] == nil {
		s.dif[r] = &bitset.Set{}
	}
	return s.dif[r]
}

func (s *solver) succOf(r VarID) *bitset.Set {
	if s.succ[r] == nil {
		s.succ[r] = &bitset.Set{}
	}
	return s.succ[r]
}

// ownSucc returns r's successor set for mutation, cloning it first if it
// is still shared with a checkpoint.
func (s *solver) ownSucc(r VarID) *bitset.Set {
	if s.succ[r] == nil {
		s.succ[r] = &bitset.Set{}
	} else if s.succShared != nil && s.succShared[r] {
		s.succ[r] = s.succ[r].Clone()
		s.succShared[r] = false
	}
	return s.succ[r]
}

// addSucc inserts the simple edge rs→rd, cloning a checkpoint-shared
// successor set only when the edge is genuinely new — re-seeding after a
// resume re-installs every existing edge, and those no-op inserts must
// not break the sharing.
func (s *solver) addSucc(rs, rd VarID) bool {
	if set := s.succ[rs]; set != nil && s.succShared != nil && s.succShared[rs] && set.Contains(rd) {
		return false
	}
	return s.ownSucc(rs).Add(rd)
}

// hasFlag reports a pointer-side flag on v's representative.
func (s *solver) hasFlag(v VarID, bit Flags) bool {
	return s.repFlags[s.find(v)]&bit != 0
}

// setFlag sets a pointer-side flag on v's representative, enqueues it on
// change, and reports whether anything changed.
func (s *solver) setFlag(v VarID, bit Flags) bool {
	r := s.find(v)
	if s.repFlags[r]&bit == bit {
		return false
	}
	s.repFlags[r] |= bit
	s.fullVisit[r] = true
	s.flagMarks++
	s.fire(&s.tel.Firings.Flag)
	s.noteProgress()
	s.enqueue(r)
	return true
}

func (s *solver) enqueue(r VarID) {
	if s.wl != nil {
		s.wl.push(r)
	}
}

// seed loads the problem's constraints into the solver state.
func (s *solver) seed() {
	prob := s.p
	// Base constraints go directly into Sol_e (paper Section V-B).
	for _, e := range prob.Base {
		dst := s.find(e.Dst)
		if !s.ptrCompat[dst] {
			continue
		}
		s.addPointee(dst, e.Src)
	}
	for _, e := range prob.Simple {
		s.addEdgeInit(e.Src, e.Dst)
	}
	for _, e := range prob.Load {
		// Dst ⊇ *Src: attach to the pointer Src.
		r := s.find(e.Src)
		s.loadTo[r] = append(s.loadTo[r], e.Dst)
	}
	for _, e := range prob.Store {
		// *Dst ⊇ Src: attach to the pointer Dst.
		r := s.find(e.Dst)
		s.storeFrom[r] = append(s.storeFrom[r], e.Src)
	}
	for _, fc := range prob.Funcs {
		s.funcsAt[fc.F] = append(s.funcsAt[fc.F], funcC{ret: fc.Ret, args: fc.Args})
	}
	for _, cc := range prob.Calls {
		r := s.find(cc.Target)
		s.callsAt[r] = append(s.callsAt[r], callC{ret: cc.Ret, args: cc.Args})
	}

	if s.cfg.Rep == EP {
		s.seedEP()
	} else {
		s.seedIP()
	}
}

// seedIP installs the initial flags and runs MarkExternallyAccessible on
// every initially external location (Algorithm 1 preamble).
func (s *solver) seedIP() {
	prob := s.p
	for v := VarID(0); v < VarID(prob.NumVars()); v++ {
		f := prob.Flags[v]
		if f == 0 {
			continue
		}
		if f&FlagImpFunc != 0 {
			s.impFunc[v] = true
		}
		r := s.find(v)
		if s.ptrCompat[r] {
			s.repFlags[r] |= f & (FlagPointsExt | FlagEscapedPointees | FlagStoreScalar | FlagLoadScalar)
		}
		if f&FlagExternal != 0 {
			s.markExternallyAccessible(v)
		}
	}
}

// seedEP materializes the Ω node and translates the flag constraints into
// the original constraint language (Section III-B, Table II "Old" column).
func (s *solver) seedEP() {
	prob := s.p
	o := s.omega
	// Ω ⊇ {Ω}: external pointers may target external memory.
	s.addPointee(s.find(o), o)
	// Ω ⊇ *Ω and *Ω ⊇ Ω: self load/store edges.
	s.loadTo[s.find(o)] = append(s.loadTo[s.find(o)], o)
	s.storeFrom[s.find(o)] = append(s.storeFrom[s.find(o)], o)
	// Call_e: external modules call everything Ω can reach.
	s.callsAt[s.find(o)] = append(s.callsAt[s.find(o)], callC{ret: o, external: true})
	// Func_e on Ω: indirect calls through unknown pointers reach external
	// functions.
	s.funcsAt[o] = append(s.funcsAt[o], funcC{ret: o, external: true})

	for v := VarID(0); v < VarID(prob.NumVars()); v++ {
		f := prob.Flags[v]
		if f == 0 {
			continue
		}
		if f&FlagExternal != 0 {
			s.addPointee(s.find(o), v)
		}
		if f&FlagImpFunc != 0 {
			s.funcsAt[v] = append(s.funcsAt[v], funcC{ret: o, external: true})
		}
		if s.ptrCompat[s.find(v)] {
			if f&FlagPointsExt != 0 {
				s.addEdgeInit(o, v)
			}
			if f&FlagEscapedPointees != 0 {
				s.addEdgeInit(v, o)
			}
		}
		if f&FlagStoreScalar != 0 {
			r := s.find(v)
			s.storeFrom[r] = append(s.storeFrom[r], o)
		}
		if f&FlagLoadScalar != 0 {
			r := s.find(v)
			s.loadTo[r] = append(s.loadTo[r], o)
		}
	}
}

// addPointee inserts x into Sol_e(r) (r must be a representative), keeping
// the difference set in sync. Reports change.
func (s *solver) addPointee(r, x VarID) bool {
	if !s.ptsOf(r).Add(x) {
		return false
	}
	s.pointeeAdds++
	if s.cfg.DP {
		s.difOf(r).Add(x)
	}
	return true
}

// addEdgeInit installs a phase-1 simple edge src→dst without any online
// processing (the initial worklist pass propagates everything).
func (s *solver) addEdgeInit(src, dst VarID) {
	rs, rd := s.find(src), s.find(dst)
	if rs == rd {
		return
	}
	// Pointer-incompatible endpoints become pointer-integer conversions
	// (paper Section V-B).
	if !s.edgeCompat(&rs, &rd) {
		return
	}
	s.addSucc(rs, rd)
}

// edgeCompat normalizes an edge whose endpoint is pointer incompatible.
// It reports whether a real edge should still be added (both endpoints
// compatible after normalization). It may rewrite endpoints to Ω in EP
// mode.
func (s *solver) edgeCompat(src, dst *VarID) bool {
	sOK, dOK := s.ptrCompat[*src], s.ptrCompat[*dst]
	if sOK && dOK {
		return true
	}
	if s.cfg.Rep == EP {
		// Treat the incompatible endpoint as Ω itself (Section V-B:
		// "x is unified with Ω").
		if !sOK {
			*src = s.find(s.omega)
		}
		if !dOK {
			*dst = s.find(s.omega)
		}
		return *src != *dst
	}
	// IP mode: dst ⊇ x becomes dst ⊒ Ω; x ⊇ src becomes Ω ⊒ src.
	if !sOK && dOK {
		s.setFlag(*dst, FlagPointsExt)
	}
	if sOK && !dOK {
		s.setFlag(*src, FlagEscapedPointees)
	}
	return false
}

// markExternallyAccessible implements MARKEXTERNALLYACCESSIBLE(x) from
// Algorithm 1: x joins E, gains x ⊒ Ω and Ω ⊒ x, and if x is a function,
// its return value escapes and its parameters gain unknown origins.
// IP mode only.
func (s *solver) markExternallyAccessible(x VarID) {
	if s.external[x] {
		return
	}
	s.external[x] = true
	s.extMarks++
	s.noteProgress()
	if s.ptrCompat[s.find(x)] {
		s.setFlag(x, FlagPointsExt)
		s.setFlag(x, FlagEscapedPointees)
	}
	for _, fc := range s.funcsAt[x] {
		if fc.ret != NoVar && s.ptrCompat[s.find(fc.ret)] {
			s.setFlag(fc.ret, FlagEscapedPointees)
		}
		for _, a := range fc.args {
			if a != NoVar && s.ptrCompat[s.find(a)] {
				s.setFlag(a, FlagPointsExt)
			}
		}
	}
	s.enqueue(s.find(x))
}

// callToImported implements CALLTOIMPORTED(r, a1..ak) from Algorithm 1:
// the call's result has unknown origin and its arguments escape. IP mode.
func (s *solver) callToImported(c callC) {
	if c.ret != NoVar && s.ptrCompat[s.find(c.ret)] {
		s.setFlag(c.ret, FlagPointsExt)
	}
	for _, a := range c.args {
		if a != NoVar && s.ptrCompat[s.find(a)] {
			s.setFlag(a, FlagEscapedPointees)
		}
	}
}

// unify merges the constraint-graph nodes of a and b (cycle elimination,
// Section II-D). The surviving representative keeps the merged Sol_e,
// flags, edges, and call constraints, and is re-enqueued.
func (s *solver) unify(a, b VarID) VarID {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return ra
	}
	w := s.forest.Union(ra, rb)
	l := ra
	if w == ra {
		l = rb
	}
	s.stats.Unifications++
	s.noteProgress()
	if s.pts[l] != nil {
		if s.pts[w] == nil {
			s.pts[w] = s.pts[l]
			if s.ptsShared != nil {
				s.ptsShared[w] = s.ptsShared[l]
			}
		} else {
			s.ptsOf(w).UnionWith(s.pts[l])
		}
		s.pts[l] = nil
		if s.ptsShared != nil {
			s.ptsShared[l] = false
		}
	}
	if s.cfg.DP && s.dif[l] != nil {
		if s.dif[w] == nil {
			s.dif[w] = s.dif[l]
		} else {
			s.dif[w].UnionWith(s.dif[l])
		}
		s.dif[l] = nil
	}
	if s.succ[l] != nil {
		if s.succ[w] == nil {
			s.succ[w] = s.succ[l]
			if s.succShared != nil {
				s.succShared[w] = s.succShared[l]
			}
		} else {
			s.ownSucc(w).UnionWith(s.succ[l])
		}
		s.succ[l] = nil
		if s.succShared != nil {
			s.succShared[l] = false
		}
	}
	s.loadTo[w] = append(s.loadTo[w], s.loadTo[l]...)
	s.loadTo[l] = nil
	s.storeFrom[w] = append(s.storeFrom[w], s.storeFrom[l]...)
	s.storeFrom[l] = nil
	s.callsAt[w] = append(s.callsAt[w], s.callsAt[l]...)
	s.callsAt[l] = nil
	s.repFlags[w] |= s.repFlags[l]
	s.ptrCompat[w] = s.ptrCompat[w] || s.ptrCompat[l]
	if s.hcdRef != nil {
		if rl, ok := s.hcdRef[l]; ok {
			if rw, ok2 := s.hcdRef[w]; ok2 {
				// Both halves had HCD partners: they must collapse too.
				s.pendingHCDUnions = append(s.pendingHCDUnions, [2]VarID{rl, rw})
			} else {
				s.hcdRef[w] = rl
			}
			delete(s.hcdRef, l)
		}
	}
	s.fullVisit[w] = true
	s.enqueue(w)
	return w
}

// finish assembles the Solution.
func (s *solver) finish() *Solution {
	sol := &Solution{
		p:         s.p,
		repOf:     make([]VarID, s.n),
		pts:       s.pts,
		pointsExt: make([]bool, s.n),
		external:  s.external,
		omega:     s.omega,
	}
	// Flatten the union-find forest into a plain representative table so
	// solution queries never path-compress (write) shared state.
	for v := 0; v < s.n; v++ {
		sol.repOf[v] = s.find(VarID(v))
	}
	for r := 0; r < s.n; r++ {
		sol.pointsExt[r] = s.repFlags[r]&FlagPointsExt != 0
	}
	sol.Stats = s.stats
	sol.Stats.ExplicitPointees = sol.CountExplicitPointees()
	seen := make([]bool, s.n)
	edges := 0
	for v := 0; v < s.n; v++ {
		r := s.find(VarID(v))
		if !seen[r] {
			seen[r] = true
			if s.succ[r] != nil {
				edges += s.succ[r].Len()
			}
		}
	}
	sol.Stats.SimpleEdges = edges
	return sol
}
