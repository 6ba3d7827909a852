package core

import (
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
)

// Wave-propagation solver (Pereira and Berlin, cited as reference [11] in
// the paper's related work) — an extension beyond the paper's Table IV
// configuration space. Each wave collapses every strongly connected
// component of the current simple-edge graph, then visits all nodes in
// topological order so points-to sets flow through the whole acyclic graph
// in a single pass; new edges discovered from complex constraints trigger
// the next wave. Wave is not part of AllConfigs (the paper's space) but is
// selectable explicitly via "IP+Wave" / "EP+Wave" / "IP+Wave+PIP".

// solveWave runs waves until no rule makes progress.
func (s *solver) solveWave() {
	// The worklist is only used as a change sink; waves visit every node
	// themselves.
	s.wl = newWorklist(FIFO, s)
	for v := 0; v < s.n; v++ {
		r := s.find(VarID(v))
		s.fullVisit[r] = true
	}
	for {
		s.progress = false
		if s.budgetExhausted() {
			return
		}
		// Chaos hook: an injected error mid-solve latches the abort flag,
		// so the wave solver degrades to the sound Ω top element exactly
		// like a budget exhaustion (injected panics propagate to the
		// engine's per-job recovery instead).
		if err := faults.Inject(faults.CoreWave); err != nil {
			s.aborted = true
			s.tk.Event("fault_injected", obs.S("point", string(faults.CoreWave)))
			return
		}
		wave := s.tk.Begin("wave", obs.N("pass", int64(s.stats.Passes+1)))
		s.collapseAllSCCs()
		order := s.topoOrder()
		for _, r := range order {
			if s.budgetExhausted() {
				wave.End(obs.N("nodes", int64(len(order))))
				return
			}
			if s.find(r) != r {
				continue
			}
			s.fullVisit[r] = true
			s.visit(r)
		}
		s.stats.Passes++
		wave.End(obs.N("nodes", int64(len(order))))
		s.sampleConvergence()
		if !s.progress {
			// Drain the change sink: anything enqueued during the last
			// wave was already (or will be) covered because no progress
			// happened.
			for {
				if _, ok := s.wl.pop(); !ok {
					break
				}
			}
			return
		}
	}
}

// topoOrder returns all representatives in topological order of the
// simple-edge graph (sources first); cycle-free after collapseAllSCCs.
func (s *solver) topoOrder() []VarID {
	s.markGen++
	gen := s.markGen
	var order []VarID
	type frame struct {
		n     VarID
		succs []uint32
		i     int
	}
	var frames []frame
	for v := 0; v < s.n; v++ {
		root := s.find(VarID(v))
		if s.visitMark[root] == gen {
			continue
		}
		s.visitMark[root] = gen
		frames = frames[:0]
		frames = append(frames, frame{n: root, succs: s.succSlice(root)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := s.find(f.succs[f.i])
				f.i++
				if s.visitMark[w] != gen {
					s.visitMark[w] = gen
					frames = append(frames, frame{n: w, succs: s.succSlice(w)})
				}
				continue
			}
			order = append(order, f.n)
			frames = frames[:len(frames)-1]
		}
	}
	// Post-order is reverse topological; flip it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
