package core

import "maps"

// Stable variable identity across the generations of one lineage.
//
// Generating a module from scratch numbers its variables in generation
// order: every global and function symbol first, then each function body.
// Appending one function to a C file therefore shifts the IDs of every
// variable generated after its symbol, and the summary diff (which
// compares variables by ID) sees the whole universe retyped. Generating
// against the previous generation's problem instead keeps each surviving
// name at its old ID and appends new names at the end, so appending a
// function is a monotone delta the checkpoint can resume.
//
// A name that disappears stays behind as a dead variable: same name,
// kind and pointer compatibility as before, no flags and no constraints.
// Problem.Order lists the live variables in generation order, which is
// what Compact uses to drop the dead IDs again and what Solution.Dump
// uses to print in from-scratch order.

// stabilize renumbers the freshly generated g against prev, the previous
// generation's problem: names already in prev keep their IDs, new names
// are appended, and prev's other names stay as dead variables. It does
// nothing when the names of either problem are not unique, or when the
// numbering would not change.
func (g *Gen) stabilize(prev *Problem) {
	p := g.Problem
	ids := make(map[string]VarID, len(prev.Names)+p.NumVars())
	for i, name := range prev.Names {
		if _, dup := ids[name]; dup {
			return
		}
		ids[name] = VarID(i)
	}
	perm := make([]VarID, p.NumVars())
	claimed := make([]bool, len(prev.Names)+p.NumVars())
	next := VarID(len(prev.Names))
	identity := len(prev.Names) == p.NumVars()
	for i, name := range p.Names {
		id, ok := ids[name]
		if !ok {
			id = next
			next++
			ids[name] = id
		}
		if claimed[id] {
			return // a name generated twice
		}
		claimed[id] = true
		perm[i] = id
		identity = identity && id == VarID(i)
	}
	if identity {
		return
	}
	q := p.remapped(perm, int(next))
	for id := range prev.Names {
		if !claimed[id] {
			q.Names[id] = prev.Names[id]
			q.Kind[id] = prev.Kind[id]
			q.PtrCompat[id] = prev.PtrCompat[id]
		}
	}
	q.Order = perm
	g.Problem = q
	g.remapMaps(perm)
}

// Compact returns p renumbered so that each live variable's ID is its
// position in generation order and the dead variables are gone: the
// problem a from-scratch generation of the same module builds. A problem
// without an Order is already compact and is returned as is.
func (p *Problem) Compact() *Problem {
	if p.Order == nil {
		return p
	}
	return p.remapped(p.compaction(), len(p.Order))
}

// compaction maps each variable to its compacted ID (NoVar when dead).
func (p *Problem) compaction() []VarID {
	perm := make([]VarID, p.NumVars())
	for i := range perm {
		perm[i] = NoVar
	}
	for i, v := range p.Order {
		perm[v] = VarID(i)
	}
	return perm
}

// UseCompacted moves g onto q, which must be g.Problem.Compact(), and
// translates g's value maps into q's numbering in place.
func (g *Gen) UseCompacted(q *Problem) {
	if q == g.Problem {
		return
	}
	g.remapMaps(g.Problem.compaction())
	g.Problem = q
}

// Clone returns a copy of g whose maps can be rewritten without touching
// g's; the problem and the module are shared.
func (g *Gen) Clone() *Gen {
	c := *g
	c.VarOf = maps.Clone(g.VarOf)
	c.MemOf = maps.Clone(g.MemOf)
	c.RetOf = maps.Clone(g.RetOf)
	return &c
}

// remapMaps rewrites every value of g's maps through perm.
func (g *Gen) remapMaps(perm []VarID) {
	for k, v := range g.VarOf {
		g.VarOf[k] = perm[v]
	}
	for k, v := range g.MemOf {
		g.MemOf[k] = perm[v]
	}
	for k, v := range g.RetOf {
		g.RetOf[k] = perm[v]
	}
}

// remapped returns a copy of p with variable v renumbered perm[v] in a
// universe of n variables. Variables mapped to NoVar are dropped, so they
// must appear in no constraint; per-variable slots no variable maps to
// are left zero. The copy has no Order.
func (p *Problem) remapped(perm []VarID, n int) *Problem {
	q := &Problem{
		Names:     make([]string, n),
		Kind:      make([]VarKind, n),
		PtrCompat: make([]bool, n),
		Flags:     make([]Flags, n),
		Base:      remapEdges(p.Base, perm),
		Simple:    remapEdges(p.Simple, perm),
		Load:      remapEdges(p.Load, perm),
		Store:     remapEdges(p.Store, perm),
		Funcs:     make([]FuncConstraint, len(p.Funcs)),
		Calls:     make([]CallConstraint, len(p.Calls)),
	}
	for v, id := range perm {
		if id != NoVar {
			q.Names[id] = p.Names[v]
			q.Kind[id] = p.Kind[v]
			q.PtrCompat[id] = p.PtrCompat[v]
			q.Flags[id] = p.Flags[v]
		}
	}
	// One backing array holds every remapped argument list.
	nargs := 0
	for _, f := range p.Funcs {
		nargs += len(f.Args)
	}
	for _, c := range p.Calls {
		nargs += len(c.Args)
	}
	args := make([]VarID, 0, nargs)
	remapArgs := func(in []VarID) []VarID {
		start := len(args)
		for _, a := range in {
			args = append(args, remapVar(a, perm))
		}
		return args[start:len(args):len(args)]
	}
	for i, f := range p.Funcs {
		q.Funcs[i] = FuncConstraint{F: perm[f.F], Ret: remapVar(f.Ret, perm), Args: remapArgs(f.Args)}
	}
	for i, c := range p.Calls {
		q.Calls[i] = CallConstraint{Target: perm[c.Target], Ret: remapVar(c.Ret, perm), Args: remapArgs(c.Args)}
	}
	return q
}

func remapVar(v VarID, perm []VarID) VarID {
	if v == NoVar {
		return NoVar
	}
	return perm[v]
}

func remapEdges(in []Edge, perm []VarID) []Edge {
	out := make([]Edge, len(in))
	for i, e := range in {
		out[i] = Edge{Dst: perm[e.Dst], Src: perm[e.Src]}
	}
	return out
}

// liveOrder returns the live variables in generation order and, for a
// problem with an Order, each variable's position in it (rank). For a
// compact problem order is nil and ID order is generation order.
func (p *Problem) liveOrder() (order []VarID, rank []int) {
	if p.Order == nil {
		return nil, nil
	}
	rank = make([]int, p.NumVars())
	for i, v := range p.Order {
		rank[v] = i
	}
	return p.Order, rank
}
