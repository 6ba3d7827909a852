package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/pip-analysis/pip/internal/bitset"
)

// SolveStats records measurable work done by a solve, used by the benchmark
// harness for Tables V and VI.
type SolveStats struct {
	// Duration is the wall-clock time of the constraint-solving phase.
	Duration time.Duration
	// ExplicitPointees is the total number of explicit pointees across all
	// (representative) solution sets, the Table VI metric.
	ExplicitPointees int
	// Visits counts worklist node visits (0 for the naive solver).
	Visits int
	// Passes counts full fixed-point passes of the naive solver.
	Passes int
	// Unifications counts cycle-elimination merges performed.
	Unifications int
	// SimpleEdges is the number of simple edges at fixed point.
	SimpleEdges int
}

// Solution is the result of solving a Problem: Sol : P → ℘(M), decomposed
// into explicit pointees (Sol_e) and the implicit part (Sol_i = E when the
// variable is marked x ⊒ Ω, Section III-D).
type Solution struct {
	p *Problem
	// repOf[v] is v's cycle representative, flattened from the solver's
	// union-find forest when the solve finishes. A plain slice (instead of
	// the live forest) makes every Solution query read-only: uf.Find
	// path-compresses, which would be a data race when a solution is
	// shared across goroutines (as the engine's cache does).
	repOf []VarID
	// pts[r] is Sol_e for representative r.
	pts []*bitset.Set
	// pointsExt[r] reports x ⊒ Ω for representative r.
	pointsExt []bool
	// external[v] reports Ω ⊒ {v} per original variable.
	external []bool
	// omega is the materialized Ω variable in EP mode, or NoVar.
	omega VarID

	Stats SolveStats

	// Degraded reports that the solve exhausted its Budget and this is the
	// trivially sound Ω-degraded solution, not the exact fixed point.
	Degraded bool

	// Telemetry is the per-solve instrumentation block: phase timers, rule
	// firing counts, and the worklist high-water mark.
	Telemetry Telemetry

	// demand and explored describe a demand solve's slice (see
	// demand.go); both are nil for exhaustive solves.
	demand   *DemandStats
	explored []bool
}

// OmegaPointee is the pseudo memory location standing for "all memory in
// external modules not represented by any other abstract location" in
// reported points-to sets.
const OmegaPointee VarID = NoVar - 1

// NumVars returns the number of variables in the underlying problem
// (excluding the materialized Ω, if any).
func (s *Solution) NumVars() int { return s.p.NumVars() }

// Problem returns the problem this solution solves.
func (s *Solution) Problem() *Problem { return s.p }

// Demand reports how much of the problem a demand solve
// (SolveOptions.Demand) explored; nil for exhaustive solves.
func (s *Solution) Demand() *DemandStats {
	if s.demand == nil {
		return nil
	}
	d := *s.demand
	return &d
}

// Explored reports whether v's constraint component was solved. Every
// variable of an exhaustive solve is explored; in a demand solve the
// unexplored variables answer the sound Ω.
func (s *Solution) Explored(v VarID) bool { return s.explored == nil || s.explored[v] }

// rep returns the variable's representative.
func (s *Solution) rep(v VarID) VarID { return s.repOf[v] }

// Rep returns v's cycle representative: variables unified by cycle
// elimination share one representative and therefore one points-to set.
// The differential harness compares representatives across solver paths.
func (s *Solution) Rep(v VarID) VarID { return s.repOf[v] }

// PointsToExternal reports whether v may target external memory (v ⊒ Ω).
func (s *Solution) PointsToExternal(v VarID) bool {
	if s.omega != NoVar {
		r := s.rep(v)
		return s.pts[r] != nil && s.pts[r].Contains(s.omega)
	}
	return s.pointsExt[s.rep(v)]
}

// Escaped reports whether location v is externally accessible (Ω ⊒ {v}).
// In EP mode the external table is consulted alongside Ω's points-to set:
// full solves record escapes only in the set, while demand solves mark
// unexplored variables through the table so the Ω answer never leaks into
// the explicit sets of variables unified with Ω (see demand.go).
func (s *Solution) Escaped(v VarID) bool {
	if s.external[v] {
		return true
	}
	if s.omega != NoVar {
		ro := s.rep(s.omega)
		return s.pts[ro] != nil && s.pts[ro].Contains(v)
	}
	return false
}

// ExternalSet returns E: all externally accessible memory locations, sorted.
func (s *Solution) ExternalSet() []VarID {
	var out []VarID
	if s.omega != NoVar {
		seen := make(map[VarID]bool)
		ro := s.rep(s.omega)
		if s.pts[ro] != nil {
			s.pts[ro].ForEach(func(x uint32) {
				if x != s.omega {
					out = append(out, x)
					seen[x] = true
				}
			})
		}
		// Demand solves mark unexplored variables through the external
		// table (Escaped documents why); merge them in, keeping the sort.
		extra := false
		for v := VarID(0); v < VarID(len(s.external)); v++ {
			if s.external[v] && !seen[v] && v != s.omega {
				out = append(out, v)
				extra = true
			}
		}
		if extra {
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		}
		return out
	}
	for v := VarID(0); v < VarID(len(s.external)); v++ {
		if s.external[v] {
			out = append(out, v)
		}
	}
	return out
}

// Explicit returns Sol_e(v) as a sorted slice (excluding Ω itself in EP
// mode, so EP and IP report the same explicit sets modulo doubled-up
// pointees).
func (s *Solution) Explicit(v VarID) []VarID {
	r := s.rep(v)
	if s.pts[r] == nil {
		return nil
	}
	out := make([]VarID, 0, s.pts[r].Len())
	s.pts[r].ForEach(func(x uint32) {
		if x != s.omega || s.omega == NoVar {
			out = append(out, x)
		}
	})
	return out
}

// PointsTo returns the full Sol(v) = Sol_e(v) ∪ Sol_i(v). When v may point
// to external memory, the set includes every externally accessible location
// and the OmegaPointee marker.
func (s *Solution) PointsTo(v VarID) []VarID {
	seen := map[VarID]bool{}
	for _, x := range s.Explicit(v) {
		seen[x] = true
	}
	if s.PointsToExternal(v) {
		for _, x := range s.ExternalSet() {
			seen[x] = true
		}
		seen[OmegaPointee] = true
	}
	out := make([]VarID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MayShareTargets reports whether Sol(a) ∩ Sol(b) is non-empty, the core
// query of the alias-analysis client.
func (s *Solution) MayShareTargets(a, b VarID) bool {
	ra, rb := s.rep(a), s.rep(b)
	aExt, bExt := s.PointsToExternal(a), s.PointsToExternal(b)
	// Both have unknown-origin pointees: both may target Ω.
	if aExt && bExt {
		return true
	}
	pa, pb := s.pts[ra], s.pts[rb]
	if pa != nil && pb != nil && pa.Intersects(pb) {
		// In EP mode Ω may be the shared element; that is still a real
		// shared target (external memory).
		return true
	}
	// One side implicit: intersect the other side's explicit set with E.
	checkExt := func(explicit *bitset.Set) bool {
		if explicit == nil {
			return false
		}
		found := false
		explicit.ForEach(func(x uint32) {
			if !found && x != s.omega && s.Escaped(x) {
				found = true
			}
		})
		return found
	}
	if aExt && checkExt(pb) {
		return true
	}
	if bExt && checkExt(pa) {
		return true
	}
	return false
}

// CountExplicitPointees tallies explicit pointees over representative sets,
// the Table VI metric. Ω itself is not counted in EP mode so that EP and IP
// tallies measure the same doubled-up-pointee effect.
func (s *Solution) CountExplicitPointees() int {
	n := 0
	counted := map[VarID]bool{}
	for v := 0; v < len(s.pts); v++ {
		r := s.rep(VarID(v))
		if counted[r] || s.pts[r] == nil {
			continue
		}
		counted[r] = true
		n += s.pts[r].Len()
		if s.omega != NoVar && s.pts[r].Contains(s.omega) {
			n--
		}
	}
	return n
}

// ApproxBytes estimates the memory backing the explicit points-to sets,
// the dominant memory consumer of the analysis (paper Section VI-C).
func (s *Solution) ApproxBytes() int {
	n := 0
	counted := map[VarID]bool{}
	for v := 0; v < len(s.pts); v++ {
		r := s.rep(VarID(v))
		if counted[r] || s.pts[r] == nil {
			continue
		}
		counted[r] = true
		n += s.pts[r].ApproxBytes()
	}
	return n
}

// Canonical renders the complete solution in a normalized textual form used
// by the configuration-equivalence tests: one line per pointer-compatible
// variable with its full sorted Sol set.
func (s *Solution) Canonical() string {
	var b strings.Builder
	for v := VarID(0); v < VarID(s.p.NumVars()); v++ {
		if !s.p.PtrCompat[v] {
			continue
		}
		fmt.Fprintf(&b, "%d:", v)
		for _, x := range s.PointsTo(v) {
			if x == OmegaPointee {
				b.WriteString(" Ω")
			} else {
				fmt.Fprintf(&b, " %d", x)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fingerprint renders every observable component of the solution in a
// normalized textual form: per-variable cycle representatives, explicit
// pointee sets (Sol_e), the points-external flag (x ⊒ Ω), and the escaped
// set (Ω ⊒ {x}). Two solves of the same problem under the same
// configuration must produce byte-identical fingerprints; the engine's
// differential harness asserts exactly this across sequential, parallel,
// and cached solver paths.
func (s *Solution) Fingerprint() string {
	var b strings.Builder
	if s.Degraded {
		b.WriteString("degraded\n")
	}
	for v := VarID(0); v < VarID(s.p.NumVars()); v++ {
		fmt.Fprintf(&b, "%d r%d", v, s.Rep(v))
		if s.p.PtrCompat[v] {
			b.WriteString(" e:")
			for _, x := range s.Explicit(v) {
				fmt.Fprintf(&b, " %d", x)
			}
			if s.PointsToExternal(v) {
				b.WriteString(" Ω")
			}
		}
		if s.Escaped(v) {
			b.WriteString(" E")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dump renders a human-readable points-to report with variable names.
// Variables and pointees appear in generation order and dead variables
// are left out, so a problem generated against an earlier generation
// (Problem.Order) dumps exactly like the same module generated from
// scratch.
func (s *Solution) Dump() string {
	var b strings.Builder
	order, rank := s.p.liveOrder()
	n := s.p.NumVars()
	if order != nil {
		n = len(order)
	}
	for i := 0; i < n; i++ {
		v := VarID(i)
		if order != nil {
			v = order[i]
		}
		if !s.p.PtrCompat[v] {
			continue
		}
		fmt.Fprintf(&b, "%s ->", s.p.Names[v])
		pts := s.PointsTo(v)
		if rank != nil {
			// OmegaPointee sorts last, as it does by ID.
			key := func(x VarID) int {
				if x == OmegaPointee {
					return len(rank)
				}
				return rank[x]
			}
			sort.Slice(pts, func(i, j int) bool { return key(pts[i]) < key(pts[j]) })
		}
		for _, x := range pts {
			if x == OmegaPointee {
				b.WriteString(" <external>")
			} else {
				fmt.Fprintf(&b, " %s", s.p.Names[x])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WithProblem returns a shallow copy of the solution whose queries resolve
// variable names against p instead of the originally solved problem. The
// caller must guarantee p is constraint-identical to the solved problem
// (same universe, kinds, compatibility, and constraint multiset) — the
// incremental layer uses this to reuse a solution across a pure rename,
// which by construction yields an empty summary delta.
func (s *Solution) WithProblem(p *Problem) *Solution {
	t := *s
	t.p = p
	return &t
}
