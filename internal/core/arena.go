package core

import (
	"sync"

	"github.com/pip-analysis/pip/internal/bitset"
	"github.com/pip-analysis/pip/internal/uf"
)

// Arena owns the reusable scratch state of one solver: the union-find
// forest, flag/visit tables, simple-edge and difference sets, complex
// constraint tables, and worklist storage.
// Reusing an arena across solves removes the dominant per-solve allocation
// churn (everything sized by variable count except the points-to sets
// themselves, which escape into the returned Solution and are always
// allocated fresh).
//
// An Arena is NOT safe for concurrent use: at most one solve may use it at
// a time. The intended owners are engine worker goroutines, each holding
// one arena across all jobs it processes. A solve whose
// SolveOptions.Arena is nil borrows one from an internal sync.Pool for the
// duration of the solve. All state is reset when a solve acquires the arena, never
// when it finishes, so a solve that panics (or is abandoned by a watchdog
// while still running) can never hand dirty or in-use state to the next
// solve.
type Arena struct {
	forest *uf.Forest

	repFlags  []Flags
	fullVisit []bool
	ptrCompat []bool
	impFunc   []bool
	visitMark []uint32

	succ      []*bitset.Set
	dif       []*bitset.Set
	loadTo    [][]VarID
	storeFrom [][]VarID
	callsAt   [][]callC
	funcsAt   [][]funcC

	// iterBuf is the visit-level pointee snapshot buffer; visit is not
	// reentrant, so one buffer per solve suffices.
	iterBuf []uint32

	// Worklist storage (FIFO/LIFO orders).
	wlPending []bool
	wlQueue   []VarID
}

// NewArena returns an empty arena ready for SolveOptions.Arena. Engine workers
// create one per goroutine and reuse it across jobs.
func NewArena() *Arena { return &Arena{} }

var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// reset sizes every table for n variables and clears it, reusing backing
// storage wherever capacity allows. Set objects left over from the
// previous solve are cleared in place so their storage (including bitmap
// words) is recycled.
func (a *Arena) reset(n int) {
	if a.forest == nil {
		a.forest = uf.New(n)
	} else {
		a.forest.Reset(n)
	}

	a.repFlags = growZero(a.repFlags, n)
	a.fullVisit = growZero(a.fullVisit, n)
	a.ptrCompat = growZero(a.ptrCompat, n)
	a.impFunc = growZero(a.impFunc, n)
	a.visitMark = growZero(a.visitMark, n)

	a.succ = resetSets(a.succ, n)
	a.dif = resetSets(a.dif, n)
	a.loadTo = resetNested(a.loadTo, n)
	a.storeFrom = resetNested(a.storeFrom, n)
	a.callsAt = resetNested(a.callsAt, n)
	a.funcsAt = resetNested(a.funcsAt, n)
}

// growZero is the shared resize-and-clear for flat scratch slices.
func growZero[T comparable](s []T, n int) []T {
	var zero T
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = zero
	}
	return s
}

// resetSets resizes a set table, clearing surviving sets in place so their
// storage is reused by the next solve.
func resetSets(s []*bitset.Set, n int) []*bitset.Set {
	if cap(s) < n {
		grown := make([]*bitset.Set, n)
		copy(grown, s)
		s = grown
	}
	s = s[:n]
	for i := range s {
		if s[i] != nil {
			s[i].Clear()
		}
	}
	return s
}

// resetNested resizes a table of slices, truncating each entry to length
// zero so the inner capacity is reused.
func resetNested[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		grown := make([][]T, n)
		copy(grown, s)
		s = grown
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// wlPendingBuf returns the arena's worklist membership table, sized and
// cleared for this solve.
func (s *solver) wlPendingBuf() []bool {
	s.ar.wlPending = growZero(s.ar.wlPending, s.n)
	return s.ar.wlPending
}

// wlQueueBuf returns the arena's (empty) worklist queue storage.
func (s *solver) wlQueueBuf() []VarID { return s.ar.wlQueue[:0] }

// recycleWorklist hands a worklist's grown storage back to the arena.
func (s *solver) recycleWorklist() {
	switch w := s.wl.(type) {
	case *fifoWL:
		s.ar.wlPending, s.ar.wlQueue = w.pending, w.q[:0]
	case *lifoWL:
		s.ar.wlPending, s.ar.wlQueue = w.pending, w.stack[:0]
	}
}
