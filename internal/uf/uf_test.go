package uf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	f := New(10)
	for i := uint32(0); i < 10; i++ {
		if f.Find(i) != i {
			t.Fatalf("Find(%d) = %d in fresh forest", i, f.Find(i))
		}
	}
	if f.SameSet(1, 2) {
		t.Fatal("fresh singletons in same set")
	}
}

func TestUnionFind(t *testing.T) {
	f := New(8)
	f.Union(0, 1)
	f.Union(2, 3)
	if !f.SameSet(0, 1) || !f.SameSet(2, 3) {
		t.Fatal("union did not merge")
	}
	if f.SameSet(0, 2) {
		t.Fatal("separate sets merged")
	}
	f.Union(1, 3)
	for _, pair := range [][2]uint32{{0, 2}, {1, 2}, {0, 3}} {
		if !f.SameSet(pair[0], pair[1]) {
			t.Fatalf("(%d,%d) not merged transitively", pair[0], pair[1])
		}
	}
	if f.SameSet(0, 4) {
		t.Fatal("untouched element merged")
	}
}

func TestUnionIdempotent(t *testing.T) {
	f := New(4)
	r1 := f.Union(0, 1)
	r2 := f.Union(0, 1)
	if r1 != r2 {
		t.Fatalf("repeated Union returned different reps: %d vs %d", r1, r2)
	}
}

func TestUnionInto(t *testing.T) {
	f := New(6)
	// Build a set with a high-rank representative, then force a low-rank
	// element to become the representative via UnionInto.
	f.Union(1, 2)
	f.Union(1, 3)
	rep := f.UnionInto(5, 1)
	if rep != 5 {
		t.Fatalf("UnionInto(5, 1) rep = %d, want 5", rep)
	}
	for _, x := range []uint32{1, 2, 3, 5} {
		if f.Find(x) != 5 {
			t.Fatalf("Find(%d) = %d, want 5", x, f.Find(x))
		}
	}
}

func TestGrow(t *testing.T) {
	f := New(2)
	f.Union(0, 1)
	f.Grow(5)
	if f.Len() != 5 {
		t.Fatalf("Len = %d, want 5", f.Len())
	}
	if !f.SameSet(0, 1) {
		t.Fatal("Grow disturbed existing sets")
	}
	for i := uint32(2); i < 5; i++ {
		if f.Find(i) != i {
			t.Fatalf("grown element %d not a singleton", i)
		}
	}
}

// Property: union-find agrees with a reference implementation that tracks
// set membership with explicit maps.
func TestQuickMatchesReference(t *testing.T) {
	check := func(seed int64, nOps uint8) bool {
		const n = 24
		rng := rand.New(rand.NewSource(seed))
		f := New(n)
		ref := make([]int, n) // ref[i] = set id
		for i := range ref {
			ref[i] = i
		}
		refSame := func(a, b int) bool { return ref[a] == ref[b] }
		refUnion := func(a, b int) {
			old, now := ref[b], ref[a]
			if old == now {
				return
			}
			for i := range ref {
				if ref[i] == old {
					ref[i] = now
				}
			}
		}
		for i := 0; i < int(nOps); i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				f.Union(uint32(a), uint32(b))
				refUnion(a, b)
			} else if f.SameSet(uint32(a), uint32(b)) != refSame(a, b) {
				return false
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if f.SameSet(uint32(a), uint32(b)) != refSame(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindDeep(b *testing.B) {
	const n = 1 << 14
	f := New(n)
	for i := 1; i < n; i++ {
		f.parent[i] = uint32(i - 1) // worst-case chain, compressed on first Find
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Find(uint32(i % n))
	}
}

func TestReset(t *testing.T) {
	f := New(8)
	f.Union(0, 1)
	f.Union(2, 3)
	f.Union(0, 3)
	if !f.SameSet(1, 2) {
		t.Fatalf("setup: 1 and 2 should share a set")
	}
	// Shrinking reset: everything is a singleton again.
	f.Reset(4)
	if f.Len() != 4 {
		t.Fatalf("Len after Reset(4) = %d", f.Len())
	}
	for i := uint32(0); i < 4; i++ {
		if f.Find(i) != i {
			t.Fatalf("Find(%d) = %d after reset, want singleton", i, f.Find(i))
		}
	}
	// Growing reset past the original capacity.
	f.Reset(16)
	if f.Len() != 16 {
		t.Fatalf("Len after Reset(16) = %d", f.Len())
	}
	if r := f.Union(10, 15); f.Find(10) != r || f.Find(15) != r {
		t.Fatalf("union after growing reset broken")
	}
	if f.SameSet(0, 1) {
		t.Fatalf("reset left 0 and 1 merged")
	}
}

// TestResetUnevenCapacity: New grows parent ([]uint32) and rank ([]uint8)
// by separate appends, so their capacities differ (for n=865, parent ends
// at capacity 1344 and rank at 896). A Reset between the two capacities
// must grow rank too instead of reslicing it past its capacity.
func TestResetUnevenCapacity(t *testing.T) {
	f := New(865)
	f.Reset(897)
	if f.Len() != 897 {
		t.Fatalf("Len after Reset(897) = %d", f.Len())
	}
	for i := uint32(0); i < 897; i++ {
		if f.Find(i) != i {
			t.Fatalf("Find(%d) = %d after reset, want singleton", i, f.Find(i))
		}
	}
	if r := f.Union(0, 896); f.Find(896) != r {
		t.Fatalf("union after uneven reset broken")
	}
}
