package core

// solveNaive iterates the inference rules over every node until no new
// constraint can be inferred, as in Andersen's original formulation. It
// reuses the worklist visit body with a nil worklist, so every pass applies
// every rule to every node with full points-to sets.
func (s *solver) solveNaive() {
	for {
		s.progress = false
		for v := 0; v < s.n; v++ {
			if s.budgetExhausted() {
				return
			}
			r := s.find(VarID(v))
			if r != VarID(v) {
				continue
			}
			s.fullVisit[r] = true
			s.visit(r)
		}
		s.stats.Passes++
		if !s.progress {
			return
		}
	}
}
