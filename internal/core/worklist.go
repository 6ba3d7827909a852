package core

import (
	"time"

	"github.com/pip-analysis/pip/internal/bitset"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
)

// This file implements Algorithm 1 from the paper: the worklist solver for
// the combined inference rules of Figure 2 (TRANS/LOAD/STORE/CALL) and
// Figure 7 (the Ω rules of the extended language), with the four PIP
// additions of Section IV. The same visit routine also drives the naive
// solver (naive.go) and the explicit-Ω (EP) representation, in which the
// flag branches are inert because Ω is an ordinary constraint variable.

// progress is set by every state mutation; the naive solver polls it.
func (s *solver) noteProgress() { s.progress = true }

// fire records one inference-rule application on the given telemetry
// counter and on the budget's total-firings counter.
func (s *solver) fire(counter *int64) {
	*counter++
	s.fired++
}

// budgetExhausted checks the configured budget and latches the aborted
// flag once it is exceeded. It is designed to sit on every iteration of
// the solve loops: the firing comparison is a pair of integer tests, and
// the wall clock is only read every 64 calls (so a deadline overshoots by
// at most 64 loop iterations plus the current node visit).
func (s *solver) budgetExhausted() bool {
	if s.aborted {
		return true
	}
	b := s.cfg.Budget
	if b.Firings != 0 && (b.Firings < 0 || s.fired >= b.Firings) {
		s.aborted = true
		s.tk.Event("budget_exhausted", obs.S("reason", "firings"), obs.N("fired", s.fired))
		return true
	}
	if !s.deadline.IsZero() {
		if s.budgetTick++; s.budgetTick&63 == 0 && time.Now().After(s.deadline) {
			s.aborted = true
			s.tk.Event("budget_exhausted", obs.S("reason", "deadline"), obs.N("fired", s.fired))
			return true
		}
	}
	return false
}

// collapseSpan starts a cycle-collapse telemetry span and returns its end
// function (for defer). Nested spans — detectAndCollapse under ocdCheck —
// count only once.
func (s *solver) collapseSpan() func() {
	s.collapseDepth++
	if s.collapseDepth > 1 {
		return func() { s.collapseDepth-- }
	}
	// Chaos hook at top-level collapse entry: an injected error latches
	// the abort flag — every solve loop polls budgetExhausted, so the
	// solver unwinds cooperatively and returns the sound Ω-degradation.
	// Injected panics propagate to the engine's per-job recovery.
	if err := faults.Inject(faults.CoreCollapse); err != nil {
		s.aborted = true
		s.tk.Event("fault_injected", obs.S("point", string(faults.CoreCollapse)))
	}
	t0 := time.Now()
	sp := s.tk.Begin("collapse")
	return func() {
		s.collapseDepth--
		s.tel.Collapse += time.Since(t0)
		sp.End()
	}
}

func (s *solver) solveWorklist() {
	s.wl = newWorklist(s.cfg.Order, s)
	if s.cfg.LCD {
		s.lcdDone = map[uint64]bool{}
	}
	if s.cfg.OCD {
		// OCD detects every cycle as soon as it appears; the phase-1
		// constraints may already contain cycles, so collapse them first.
		s.collapseAllSCCs()
	}
	// W ← P ∪ M: initialize with every node; first visits are full.
	for v := 0; v < s.n; v++ {
		r := s.find(VarID(v))
		s.fullVisit[r] = true
		s.wl.push(r)
	}
	s.drainWorklist()
}

// drainWorklist runs the worklist to empty (or budget exhaustion). It is
// the fixpoint loop shared by the from-scratch solve (which first pushes
// every node) and the incremental resume (which pushes only the nodes
// touched by added constraints; see checkpoint.go).
func (s *solver) drainWorklist() {
	traced := s.tk.Enabled()
	for {
		if s.budgetExhausted() {
			return
		}
		// Convergence profile: sample worklist depth and the growth
		// counters every 256 iterations so a trace shows the solve's shape
		// over time without per-iteration overhead.
		if s.loopIters++; traced && s.loopIters&255 == 0 {
			s.sampleConvergence()
		}
		for len(s.pendingHCDUnions) > 0 {
			pair := s.pendingHCDUnions[len(s.pendingHCDUnions)-1]
			s.pendingHCDUnions = s.pendingHCDUnions[:len(s.pendingHCDUnions)-1]
			s.unify(pair[0], pair[1])
		}
		if sz := s.wl.size(); sz > s.tel.WorklistPeak {
			s.tel.WorklistPeak = sz
		}
		n, ok := s.wl.pop()
		if !ok {
			break
		}
		if s.find(n) != n {
			continue // stale: merged into another representative
		}
		s.visit(n)
	}
}

// visit processes one node: Algorithm 1 loop body.
func (s *solver) visit(n VarID) {
	if s.aborted {
		return
	}
	s.stats.Visits++
	ip := s.cfg.Rep == IP

	// HCD: pointees of n collapse into the offline-designated partner.
	if s.hcdRef != nil {
		if ref, ok := s.hcdRef[n]; ok {
			rr := s.find(ref)
			if s.pts[n] != nil {
				for _, x := range s.pts[n].Slice() {
					if !s.ptrCompat[s.find(x)] {
						continue // pointer-incompatible pointees keep Ω semantics
					}
					rr = s.unify(rr, x)
				}
			}
			n = s.find(n)
		}
	}

	// PIP addition 1: backpropagate Ω ⊒ n from simple-edge successors.
	if s.cfg.pipRule(1) && !s.hasFlag(n, FlagEscapedPointees) && s.succ[n] != nil {
		found := false
		s.succ[n].ForEach(func(q uint32) {
			if !found && s.repFlags[s.find(q)]&FlagEscapedPointees != 0 {
				found = true
			}
		})
		if found {
			s.setFlag(n, FlagEscapedPointees)
		}
	}

	flags := s.repFlags[n]
	full := !s.cfg.DP || s.fullVisit[n]
	// PIP addition 2 requires marking every current pointee before the
	// set is cleared, so force a full iteration in that case.
	pip2 := s.cfg.pipRule(2) && flags&FlagEscapedPointees != 0 && flags&FlagPointsExt != 0
	if pip2 {
		full = true
	}
	s.fullVisit[n] = false

	// The pointee snapshot lives in the solver's reusable buffer: visit is
	// not reentrant (the nested addEdgeOnline path propagates whole sets
	// without snapshotting), so one buffer per solve suffices.
	var iter []uint32
	if full {
		if s.pts[n] != nil {
			iter = s.pts[n].AppendTo(s.iterBuf[:0])
		}
		if s.cfg.DP && s.dif[n] != nil {
			s.dif[n].Clear()
		}
	} else if s.dif[n] != nil {
		iter = s.dif[n].AppendTo(s.iterBuf[:0])
		s.dif[n].Clear()
	}
	if iter != nil {
		s.iterBuf = iter
	}

	// Escape processing: if Ω ⊒ n, every pointee becomes externally
	// accessible (IP mode; in EP mode the Ω self-edges achieve this).
	if ip && flags&FlagEscapedPointees != 0 {
		for _, x := range iter {
			if !s.external[x] {
				s.markExternallyAccessible(x)
			}
		}
	}

	// PIP addition 2: with both n ⊒ Ω and Ω ⊒ n, Sol(n) = Sol_i(n); all
	// explicit pointees are doubled-up and can be dropped, and the
	// complex-constraint work below is subsumed by the flag branches.
	if pip2 {
		if s.pts[n] != nil && s.pts[n].Len() > 0 {
			if s.ptsShared != nil && s.ptsShared[n] {
				// Shared with an old checkpoint: drop the alias instead
				// of clearing (cheaper than clone-then-clear).
				s.pts[n] = &bitset.Set{}
				s.ptsShared[n] = false
			} else {
				s.pts[n].Clear()
			}
			s.noteProgress()
		}
		if s.cfg.DP && s.dif[n] != nil {
			s.dif[n].Clear()
		}
		iter = nil
	}

	// Simple edges n → p: TRANS / TRANSΩ.
	if s.succ[n] != nil && s.succ[n].Len() > 0 {
		for _, q := range s.succ[n].Slice() {
			rq := s.find(q)
			if rq == n {
				s.ownSucc(n).Remove(q)
				continue
			}
			// PIP addition 4: with p ⊒ Ω on the target and Ω ⊒ n here,
			// the edge can never contribute; remove it.
			if s.cfg.pipRule(4) && s.repFlags[n]&FlagEscapedPointees != 0 && s.repFlags[rq]&FlagPointsExt != 0 {
				s.ownSucc(n).Remove(q)
				s.noteProgress()
				continue
			}
			s.propagate(n, rq, iter, full)
			n = s.find(n) // LCD may have merged n into a cycle
		}
	}
	n = s.find(n)
	flags = s.repFlags[n]

	// Store edges *n ⊇ p: STORE / STORETOΩ.
	for _, p := range s.storeFrom[n] {
		s.fire(&s.tel.Firings.Store)
		rp := s.find(p)
		for i, x := range iter {
			if i&63 == 63 && s.budgetExhausted() {
				return
			}
			s.addEdgeOnline(rp, x)
			rp = s.find(rp)
		}
		if ip && flags&FlagPointsExt != 0 && s.ptrCompat[rp] {
			// Storing through a pointer that may target external memory:
			// the stored value escapes (Ω ⊒ p).
			s.setFlag(rp, FlagEscapedPointees)
		}
	}
	// Scalar store *n ⊒ Ω: every pointee may receive a smuggled pointer.
	if ip && flags&FlagStoreScalar != 0 {
		for _, x := range iter {
			if s.ptrCompat[s.find(x)] {
				s.setFlag(x, FlagPointsExt)
			}
		}
	}

	// Load edges p ⊇ *n: LOAD / LOADFROMΩ.
	for _, p := range s.loadTo[n] {
		s.fire(&s.tel.Firings.Load)
		rp := s.find(p)
		for i, x := range iter {
			if i&63 == 63 && s.budgetExhausted() {
				return
			}
			s.addEdgeOnline(x, rp)
			rp = s.find(rp)
		}
		if ip && flags&FlagPointsExt != 0 && s.ptrCompat[rp] {
			// Loading through an unknown pointer yields an unknown pointer.
			s.setFlag(rp, FlagPointsExt)
		}
	}
	// Scalar load Ω ⊒ *n: every pointee's content is exposed.
	if ip && flags&FlagLoadScalar != 0 {
		for _, x := range iter {
			if s.ptrCompat[s.find(x)] {
				s.setFlag(x, FlagEscapedPointees)
			}
		}
	}

	// Calls Call(n, r, a…): CALL and the Ω call rules.
	n = s.find(n)
	if len(s.callsAt[n]) > 0 {
		calls := s.callsAt[n]
		for ci := range calls {
			c := calls[ci]
			for i, x := range iter {
				if i&63 == 63 && s.budgetExhausted() {
					return
				}
				for fi := range s.funcsAt[x] {
					s.applyCall(c, s.funcsAt[x][fi])
				}
				if ip && s.impFunc[x] {
					s.callToImported(c)
				}
			}
			if ip && flags&FlagPointsExt != 0 && !c.external {
				// Indirect call through a pointer of unknown origin: it
				// may target functions in external modules.
				s.callToImported(c)
			}
		}
	}
}

// applyCall applies the CALL inference rule for one (call, func) pair,
// including the external variants used by the EP representation.
func (s *solver) applyCall(c callC, fc funcC) {
	s.fire(&s.tel.Firings.Call)
	switch {
	case c.external && fc.external:
		return // Ω calling Ω: self-edges only
	case c.external:
		// External modules call function fc: its return value escapes and
		// its parameters receive unknown-origin pointers.
		if fc.ret != NoVar {
			s.addEdgeOnline(s.find(fc.ret), s.find(s.omega))
		}
		for _, a := range fc.args {
			if a != NoVar {
				s.addEdgeOnline(s.find(s.omega), s.find(a))
			}
		}
	case fc.external:
		// Call to an imported function: the result has unknown origin and
		// the arguments escape.
		if c.ret != NoVar {
			s.addEdgeOnline(s.find(s.omega), s.find(c.ret))
		}
		for _, a := range c.args {
			if a != NoVar {
				s.addEdgeOnline(s.find(a), s.find(s.omega))
			}
		}
	default:
		if c.ret != NoVar && fc.ret != NoVar {
			s.addEdgeOnline(s.find(fc.ret), s.find(c.ret))
		}
		k := len(c.args)
		if len(fc.args) < k {
			k = len(fc.args)
		}
		for i := 0; i < k; i++ {
			if c.args[i] != NoVar && fc.args[i] != NoVar {
				s.addEdgeOnline(s.find(c.args[i]), s.find(fc.args[i]))
			}
		}
	}
}

// propagate implements PROPAGATEPOINTEES(f, t): copy pointees (the full set
// or the difference-propagation delta) and the p ⊒ Ω flag from f to t.
func (s *solver) propagate(from, to VarID, iter []uint32, full bool) {
	s.fire(&s.tel.Firings.Trans)
	changed := false
	if len(iter) > 0 {
		tp := s.ptsOf(to)
		adds := int64(0) // kept local so the hot loop stays register-only
		if s.cfg.DP {
			td := s.difOf(to)
			for _, x := range iter {
				if tp.Add(x) {
					td.Add(x)
					adds++
				}
			}
		} else {
			for _, x := range iter {
				if tp.Add(x) {
					adds++
				}
			}
		}
		if adds > 0 {
			s.pointeeAdds += adds
			changed = true
		}
	}
	if s.repFlags[from]&FlagPointsExt != 0 && s.repFlags[to]&FlagPointsExt == 0 {
		s.repFlags[to] |= FlagPointsExt
		s.fullVisit[to] = true
		changed = true
	}
	if changed {
		s.noteProgress()
		s.enqueue(to)
		return
	}
	// Lazy cycle detection: propagation added nothing and the sets are
	// equal — a strong hint that from and to sit on a cycle.
	if s.cfg.LCD && full && s.pts[from] != nil && s.pts[from].Len() > 0 {
		key := uint64(from)<<32 | uint64(to)
		if !s.lcdDone[key] {
			s.lcdDone[key] = true
			if s.pts[to] != nil && s.pts[from].Equal(s.pts[to]) {
				s.detectAndCollapse(to, from)
			}
		}
	}
}

// propagateFull is propagate for a freshly inserted edge: the source's
// whole current set flows across, so the per-element snapshot loop is
// replaced by one whole-word batched union that records the delta
// directly. Behavior (adds counted, difference sets, flag copy, LCD
// trigger) is identical to propagate(from, to, pts[from].Slice(), true).
func (s *solver) propagateFull(from, to VarID) {
	s.fire(&s.tel.Firings.Trans)
	changed := false
	if s.pts[from] != nil && s.pts[from].Len() > 0 {
		tp := s.ptsOf(to)
		var td *bitset.Set
		if s.cfg.DP {
			td = s.difOf(to)
		}
		if adds := tp.UnionWithDelta(s.pts[from], td); adds > 0 {
			s.pointeeAdds += int64(adds)
			changed = true
		}
	}
	if s.repFlags[from]&FlagPointsExt != 0 && s.repFlags[to]&FlagPointsExt == 0 {
		s.repFlags[to] |= FlagPointsExt
		s.fullVisit[to] = true
		changed = true
	}
	if changed {
		s.noteProgress()
		s.enqueue(to)
		return
	}
	if s.cfg.LCD && s.pts[from] != nil && s.pts[from].Len() > 0 {
		key := uint64(from)<<32 | uint64(to)
		if !s.lcdDone[key] {
			s.lcdDone[key] = true
			if s.pts[to] != nil && s.pts[from].Equal(s.pts[to]) {
				s.detectAndCollapse(to, from)
			}
		}
	}
}

// addEdgeOnline inserts a simple edge src→dst discovered during solving,
// applying PIP addition 3, full propagation across the new edge, and
// online cycle detection.
func (s *solver) addEdgeOnline(src, dst VarID) {
	if s.aborted {
		return
	}
	rs, rd := s.find(src), s.find(dst)
	if rs == rd {
		return
	}
	if !s.edgeCompat(&rs, &rd) {
		return
	}
	if rs == rd {
		return
	}
	if s.succ[rs] != nil && s.succ[rs].Contains(rd) {
		return
	}
	if s.cfg.pipRule(3) {
		// PIP addition 3: if the destination's pointees all escape,
		// backpropagate Ω ⊒ src; if additionally dst ⊒ Ω, the edge is
		// redundant and is never added.
		if s.repFlags[rd]&FlagEscapedPointees != 0 {
			s.setFlag(rs, FlagEscapedPointees)
			rs = s.find(rs)
		}
		if s.repFlags[rs]&FlagEscapedPointees != 0 && s.repFlags[rd]&FlagPointsExt != 0 {
			return
		}
	}
	s.addSucc(rs, rd)
	s.noteProgress()
	// New edges always propagate the full source set, batched whole-word.
	s.propagateFull(rs, rd)
	if s.cfg.OCD {
		s.ocdCheck(rs, rd)
	}
}
