package core

import (
	"fmt"

	"github.com/pip-analysis/pip/internal/bitset"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/uf"
)

// This file implements demand-driven solving: answering "what does this
// pointer reach" without paying for the whole module. The constraint set
// is partitioned into connected components of the co-occurrence graph
// (two variables are connected when some constraint mentions both); only
// the components containing the queried roots are solved, and every
// variable outside them is soundly answered with Ω.
//
// Exactness on the explored slice follows from the partition being a real
// disjoint union: no inference rule of the solver ever moves a fact
// between variables that share no constraint chain, so solving the
// explored components in isolation computes exactly the full solution's
// answers for them. The one global coupling is Ω in the explicit-Ω
// representation: every flagged variable exchanges facts with the Ω node,
// and constraints with pointer-incompatible endpoints are rewritten to Ω
// by the solver. Those variables are therefore all tied into a single
// "Ω cluster" component, so the cluster is either fully explored or fully
// unexplored — never split.

// DemandStats describes how much of the problem a demand solve explored.
type DemandStats struct {
	ExploredVars        int `json:"explored_vars"`
	TotalVars           int `json:"total_vars"`
	ExploredConstraints int `json:"explored_constraints"`
	TotalConstraints    int `json:"total_constraints"`
}

// solveDemand runs a demand-driven solve (SolveOptions.Demand): it
// computes the constraint components backward- and forward-reachable from
// the roots (they coincide — components are undirected), solves the
// filtered problem containing only those components, and patches every
// unexplored variable to the sound Ω answer. The solution covers the full
// variable universe and reports the slice through Solution.Demand and
// Solution.Explored. Budget exhaustion degrades exactly like a full
// solve: the result is the all-Ω degraded solution, which is ⊒ every
// exact answer. A slice's state cannot resume the full problem, so no
// checkpoint is captured.
func solveDemand(prob *Problem, cfg Config, opts SolveOptions) (*Solution, error) {
	roots := opts.Demand
	n := prob.NumVars()
	for _, r := range roots {
		if int(r) >= n {
			return nil, fmt.Errorf("demand root %d out of range (%d vars)", r, n)
		}
	}
	explored := demandComponents(prob, cfg, roots)

	// Filter the problem down to the explored components: same variable
	// universe (ids must keep their meaning), constraints kept only when
	// fully explored, flags cleared on unexplored variables.
	q := &Problem{
		Names:     prob.Names,
		Kind:      prob.Kind,
		PtrCompat: prob.PtrCompat,
		Flags:     make([]Flags, n),
	}
	kept := 0
	for v := 0; v < n; v++ {
		if explored[v] {
			q.Flags[v] = prob.Flags[v]
			kept += flagBits(prob.Flags[v])
		}
	}
	keepEdge := func(e Edge) bool { return explored[e.Dst] && explored[e.Src] }
	for _, e := range prob.Base {
		if keepEdge(e) {
			q.Base = append(q.Base, e)
		}
	}
	for _, e := range prob.Simple {
		if keepEdge(e) {
			q.Simple = append(q.Simple, e)
		}
	}
	for _, e := range prob.Load {
		if keepEdge(e) {
			q.Load = append(q.Load, e)
		}
	}
	for _, e := range prob.Store {
		if keepEdge(e) {
			q.Store = append(q.Store, e)
		}
	}
	for _, fc := range prob.Funcs {
		if explored[fc.F] && varsExplored(explored, fc.Ret, fc.Args) {
			q.Funcs = append(q.Funcs, fc)
		}
	}
	for _, cc := range prob.Calls {
		if explored[cc.Target] && varsExplored(explored, cc.Ret, cc.Args) {
			q.Calls = append(q.Calls, cc)
		}
	}
	kept += len(q.Base) + len(q.Simple) + len(q.Load) + len(q.Store) + len(q.Funcs) + len(q.Calls)

	exploredVars := 0
	for _, e := range explored {
		if e {
			exploredVars++
		}
	}
	span := opts.Trace.Begin("demand",
		obs.N("roots", int64(len(roots))),
		obs.N("explored_vars", int64(exploredVars)),
		obs.N("vars", int64(n)))
	sol, err := solve(q, cfg, SolveOptions{Trace: opts.Trace, Arena: opts.Arena}, nil, nil)
	span.End()
	if err != nil {
		return nil, err
	}
	// Queries must resolve against the original problem (its names; the
	// variable universe is shared by construction).
	sol.p = prob
	sol.explored = explored
	sol.demand = &DemandStats{
		ExploredVars:        exploredVars,
		TotalVars:           n,
		ExploredConstraints: kept,
		TotalConstraints:    prob.NumConstraints(),
	}
	if sol.Degraded {
		// Budget exhausted mid-slice: the degraded solution is already the
		// all-Ω top element over the full universe — soundly ⊒ both the
		// explored and unexplored answers.
		return sol, nil
	}
	// Patch unexplored variables to Ω: escaped, pointing externally, no
	// explicit pointees. Post-solve set surgery is safe because nothing
	// propagates anymore — unexplored variables have no constraints in the
	// filtered problem, so they are untouched singleton representatives.
	for v := 0; v < n; v++ {
		if explored[v] {
			continue
		}
		id := VarID(v)
		// The escape mark goes through the external table, not Ω's
		// points-to set: cycle collapse may have unified Ω with explored
		// variables, and writing into the shared set would corrupt their
		// explicit answers.
		sol.external[id] = true
		if sol.omega != NoVar {
			if prob.PtrCompat[v] {
				sol.ptsOfRep(sol.rep(id)).Add(sol.omega)
			}
		} else if prob.PtrCompat[v] {
			sol.pointsExt[sol.rep(id)] = true
		}
	}
	return sol, nil
}

func varsExplored(explored []bool, ret VarID, args []VarID) bool {
	if ret != NoVar && !explored[ret] {
		return false
	}
	for _, a := range args {
		if a != NoVar && !explored[a] {
			return false
		}
	}
	return true
}

// demandComponents returns the explored-variable mask: the union of the
// constraint co-occurrence components containing the roots. In EP mode an
// extra virtual node (index n) represents the Ω cluster; every flagged
// variable and every constraint with a pointer-incompatible endpoint is
// unioned into it, because the solver routes all of those through the
// materialized Ω node.
func demandComponents(prob *Problem, cfg Config, roots []VarID) []bool {
	n := prob.NumVars()
	f := uf.New(n + 1)
	cluster := uint32(n)
	ep := cfg.Rep == EP

	join := func(a, b VarID) { f.Union(uint32(a), uint32(b)) }
	clusterIfIncompat := func(vs ...VarID) {
		if !ep {
			return
		}
		for _, v := range vs {
			if v != NoVar && !prob.PtrCompat[v] {
				for _, w := range vs {
					if w != NoVar {
						f.Union(uint32(w), cluster)
					}
				}
				return
			}
		}
	}
	for _, e := range prob.Base {
		join(e.Dst, e.Src)
		clusterIfIncompat(e.Dst, e.Src)
	}
	for _, e := range prob.Simple {
		join(e.Dst, e.Src)
		clusterIfIncompat(e.Dst, e.Src)
	}
	for _, e := range prob.Load {
		join(e.Dst, e.Src)
		clusterIfIncompat(e.Dst, e.Src)
	}
	for _, e := range prob.Store {
		join(e.Dst, e.Src)
		clusterIfIncompat(e.Dst, e.Src)
	}
	for _, fc := range prob.Funcs {
		all := append([]VarID{fc.F, fc.Ret}, fc.Args...)
		prev := fc.F
		for _, v := range all {
			if v != NoVar {
				join(prev, v)
				prev = v
			}
		}
		clusterIfIncompat(all...)
	}
	for _, cc := range prob.Calls {
		all := append([]VarID{cc.Target, cc.Ret}, cc.Args...)
		prev := cc.Target
		for _, v := range all {
			if v != NoVar {
				join(prev, v)
				prev = v
			}
		}
		clusterIfIncompat(all...)
	}
	if ep {
		for v := 0; v < n; v++ {
			if prob.Flags[v] != 0 {
				f.Union(uint32(v), cluster)
			}
		}
	}

	explored := make([]bool, n)
	rootRep := make(map[uint32]bool, len(roots))
	for _, r := range roots {
		rootRep[f.Find(uint32(r))] = true
	}
	if len(rootRep) == 0 {
		return explored
	}
	for v := 0; v < n; v++ {
		if rootRep[f.Find(uint32(v))] {
			explored[v] = true
		}
	}
	return explored
}

// ptsOfRep returns the points-to set of representative r, allocating the
// cell when the solve left it nil (demand patching writes into cells the
// filtered solve never touched).
func (s *Solution) ptsOfRep(r VarID) *bitset.Set {
	if s.pts[r] == nil {
		s.pts[r] = &bitset.Set{}
	}
	return s.pts[r]
}
