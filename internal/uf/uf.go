// Package uf implements a union-find (disjoint-set) forest with path
// compression and union by rank, used for cycle unification in the
// constraint-graph solvers (paper Section II-D and V-B).
package uf

// Forest is a disjoint-set forest over the integers [0, n).
// The zero value is an empty forest; use Grow to add elements.
type Forest struct {
	parent []uint32
	rank   []uint8
}

// New returns a forest with n singleton sets.
func New(n int) *Forest {
	f := &Forest{}
	f.Grow(n)
	return f
}

// Len returns the number of elements in the forest.
func (f *Forest) Len() int { return len(f.parent) }

// Grow extends the forest to hold n elements; new elements are singletons.
func (f *Forest) Grow(n int) {
	for i := len(f.parent); i < n; i++ {
		f.parent = append(f.parent, uint32(i))
		f.rank = append(f.rank, 0)
	}
}

// Reset reinitializes the forest to n singleton sets, reusing the backing
// storage when possible. Pooled solver arenas use this to recycle one
// forest across solves instead of allocating a fresh one per solve.
// Grow extends parent and rank by separate appends, so their capacities
// can differ; both must hold n before either is resliced.
func (f *Forest) Reset(n int) {
	if cap(f.parent) >= n && cap(f.rank) >= n {
		f.parent = f.parent[:n]
		f.rank = f.rank[:n]
	} else {
		f.parent = make([]uint32, n)
		f.rank = make([]uint8, n)
	}
	for i := range f.parent {
		f.parent[i] = uint32(i)
		f.rank[i] = 0
	}
}

// Find returns the representative of x's set, compressing paths as it goes.
func (f *Forest) Find(x uint32) uint32 {
	root := x
	for f.parent[root] != root {
		root = f.parent[root]
	}
	for f.parent[x] != root {
		f.parent[x], x = root, f.parent[x]
	}
	return root
}

// SameSet reports whether a and b are in the same set.
func (f *Forest) SameSet(a, b uint32) bool { return f.Find(a) == f.Find(b) }

// Union merges the sets of a and b and returns the new representative.
// If they are already in the same set, that representative is returned.
func (f *Forest) Union(a, b uint32) uint32 {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return ra
	}
	if f.rank[ra] < f.rank[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	if f.rank[ra] == f.rank[rb] {
		f.rank[ra]++
	}
	return ra
}

// UnionInto merges b's set into a's set, forcing a's representative to win.
// Solvers use this when the surviving node must keep its identity (for
// example, when auxiliary data is already keyed by a's representative).
func (f *Forest) UnionInto(a, b uint32) uint32 {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return ra
	}
	f.parent[rb] = ra
	if f.rank[ra] <= f.rank[rb] {
		f.rank[ra] = f.rank[rb] + 1
	}
	return ra
}
