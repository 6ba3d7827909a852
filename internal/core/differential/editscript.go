package differential

import (
	"fmt"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/obs"
)

// Edit-script differential harness: the correctness gate for incremental
// re-solving. A byte-coded script is interpreted as a sequence of edits to
// a constraint problem (adds, removals, renames, store/load flips); an
// incr lineage absorbs every edit in order, and after each one the
// incremental solution must be bit-identical (Solution.Fingerprint) to a
// from-scratch solve of the same version. The byte coding is shared with
// the FuzzIncrementalEdit target, so every fuzz crash replays as a script.

// editOps is the number of distinct edit opcodes ApplyEdits understands.
const editOps = 10

// ApplyEdits interprets script as a sequence of edits against p and
// returns the successive problem versions, one per applied edit. p itself
// is never modified; each version is an independent clone. Every group of
// three bytes encodes one edit: an opcode and two operands (variable or
// constraint selectors, taken modulo the current problem's sizes).
func ApplyEdits(p *core.Problem, script []byte) []*core.Problem {
	var versions []*core.Problem
	cur := p
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := int(script[i])%editOps, int(script[i+1]), int(script[i+2])
		next := cur.Clone()
		n := next.NumVars()
		if n == 0 {
			break
		}
		va, vb := core.VarID(a%n), core.VarID(b%n)
		switch op {
		case 0: // add a copy edge
			next.AddSimple(va, vb)
		case 1: // grow the variable universe: fresh object, new base fact
			m := next.AddVar("", core.Memory, true)
			next.AddBase(va, m)
		case 2: // add a load
			next.AddLoad(va, vb)
		case 3: // add a store
			next.AddStore(va, vb)
		case 4: // delete a copy edge — possibly inside a collapsed SCC
			if len(next.Simple) == 0 {
				continue
			}
			j := a % len(next.Simple)
			next.Simple = append(next.Simple[:j:j], next.Simple[j+1:]...)
		case 5: // rename only: the constraint set (and the summary) is unchanged
			next.Names[va] = fmt.Sprintf("renamed%d", b)
		case 6: // flip a store into a load with the same endpoints
			if len(next.Store) == 0 {
				continue
			}
			j := a % len(next.Store)
			e := next.Store[j]
			next.Store = append(next.Store[:j:j], next.Store[j+1:]...)
			next.AddLoad(e.Dst, e.Src)
		case 7: // introduce an external root
			next.SetFlag(va, core.FlagExternal)
		case 8: // add a function object and an indirect call to it
			m := next.AddVar("", core.Memory, true)
			next.AddFunc(m, va, []core.VarID{vb})
			next.AddBase(va, m)
			next.AddCall(va, vb, []core.VarID{va})
		case 9: // delete a base fact
			if len(next.Base) == 0 {
				continue
			}
			j := a % len(next.Base)
			next.Base = append(next.Base[:j:j], next.Base[j+1:]...)
		}
		versions = append(versions, next)
		cur = next
	}
	return versions
}

// EditReport tallies which incremental paths an edit script exercised.
type EditReport struct {
	Edits     int
	Reused    int
	Resumed   int
	Fallbacks int
}

func (r EditReport) String() string {
	return fmt.Sprintf("%d edits: %d reused, %d resumed, %d fell back",
		r.Edits, r.Reused, r.Resumed, r.Fallbacks)
}

// CheckEditScript drives one incremental lineage through the script and
// compares every generation against a from-scratch solve of the same
// version. The configuration need not be resumable: non-resumable cells
// must take the fallback path and still answer identically. Returns the
// path tally and the first divergence found, if any.
func CheckEditScript(base *core.Problem, script []byte, cfg core.Config) (EditReport, error) {
	var rep EditReport
	st, err := incr.New(base, cfg, obs.Track{})
	if err != nil {
		return rep, fmt.Errorf("generation 0: %w", err)
	}
	if st.Sol.Fingerprint() != core.MustSolve(base, cfg).Fingerprint() {
		return rep, fmt.Errorf("generation 0 differs from direct solve")
	}
	for i, version := range ApplyEdits(base, script) {
		nst, stats, err := st.Update(version, obs.Track{})
		if err != nil {
			return rep, fmt.Errorf("edit %d: update: %w", i, err)
		}
		rep.Edits++
		switch {
		case stats.ReusedSolution:
			rep.Reused++
		case stats.Resumed:
			rep.Resumed++
		default:
			rep.Fallbacks++
		}
		scratch, err := core.Solve(version, cfg, core.SolveOptions{})
		if err != nil {
			return rep, fmt.Errorf("edit %d: scratch solve: %w", i, err)
		}
		if nst.Sol.Fingerprint() != scratch.Fingerprint() {
			return rep, fmt.Errorf("edit %d: incremental diverges from scratch: %s",
				i, firstDiff(scratch.Fingerprint(), nst.Sol.Fingerprint()))
		}
		st = nst
	}
	return rep, nil
}
