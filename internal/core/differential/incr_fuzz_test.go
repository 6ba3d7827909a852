package differential

import (
	"testing"

	"github.com/pip-analysis/pip/internal/core"
)

// fuzzConfigs is the configuration palette the incremental fuzzers draw
// from: the resumable trajectory (IP worklist cells, where edits actually
// resume) plus EP and PIP cells that force the fallback path.
func fuzzConfigs() []core.Config {
	return []core.Config{
		{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO},
		{Rep: core.IP, Solver: core.Worklist, Order: core.Topo, DP: true},
		{Rep: core.EP, Solver: core.Worklist, Order: core.FIFO},
		{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO, PIP: true},
	}
}

// FuzzIncrementalEdit feeds byte-coded edit scripts through the
// incremental lineage and demands bit-identity with from-scratch solves
// after every edit. The first byte picks the problem seed, the second the
// configuration; the rest is the script (see ApplyEdits for the coding).
func FuzzIncrementalEdit(f *testing.F) {
	// Hand-built seeds for the historically scary shapes:
	// a copy-edge deletion that lands inside a collapsed SCC (the base
	// problem is cyclic, op 4 deletes a Simple edge, and the monotone
	// state built by cycle collapse must be discarded, not patched);
	f.Add([]byte{1, 0, 4, 0, 0})
	// a store flipped into a load with the same endpoints (op 6): a
	// non-monotone rewrite whose delta is one removal plus one addition;
	f.Add([]byte{1, 0, 6, 0, 0})
	// a rename chased by growth (reuse path immediately followed by a
	// resume, checking the carried-forward checkpoint);
	f.Add([]byte{2, 0, 5, 3, 9, 0, 11, 42})
	// universe growth under EP, which must fall back (op 1);
	f.Add([]byte{3, 2, 1, 7, 0})
	// and a longer mixed script over the PIP cell.
	f.Add([]byte{2, 3, 0, 1, 2, 4, 5, 6, 7, 8, 9, 1, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 64 {
			t.Skip()
		}
		seed := int64(data[0]%4) + 1
		cfgs := fuzzConfigs()
		cfg := cfgs[int(data[1])%len(cfgs)]
		// A small problem keeps the per-exec cost low enough to fuzz.
		base := Generate(seed, GenOptions{Vars: 96, Density: 0.8, Cyclic: true})
		if _, err := CheckEditScript(base, data[2:], cfg); err != nil {
			t.Fatalf("seed %d, config %s: %v", seed, cfg, err)
		}
	})
}

// FuzzDemandSlice feeds root selections through the demand solver and
// checks the demand-vs-exhaustive oracle. The first byte picks the
// problem seed, the second the configuration; remaining bytes select
// roots modulo the variable count (the problem gets one extra
// constraint-free variable appended, so root bytes can land on a pointer
// no constraint references — the slice must stay exactly itself).
func FuzzDemandSlice(f *testing.F) {
	// Hand seeds: a query on the unreferenced pointer (root byte 96 is
	// the appended constraint-free variable for the generated sizes), a
	// single mid-graph root, and a multi-root query mixing both.
	f.Add([]byte{1, 0, 96})
	f.Add([]byte{2, 1, 17})
	f.Add([]byte{3, 3, 96, 17, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 32 {
			t.Skip()
		}
		seed := int64(data[0]%4) + 1
		cfgs := fuzzConfigs()
		cfg := cfgs[int(data[1])%len(cfgs)]
		p := Generate(seed, GenOptions{Vars: 96, Density: 0.8, Cyclic: true})
		p.AddVar("unreferenced", core.Register, true)
		roots := make([]core.VarID, 0, len(data)-2)
		for _, b := range data[2:] {
			roots = append(roots, core.VarID(int(b)%p.NumVars()))
		}
		sol, err := core.Solve(p, cfg, core.SolveOptions{Demand: roots})
		if err != nil {
			t.Fatalf("seed %d, config %s: %v", seed, cfg, err)
		}
		for _, r := range roots {
			if !sol.Explored(r) {
				t.Fatalf("seed %d: root %d not explored", seed, r)
			}
		}
		ref := core.MustSolve(p, cfg)
		if err := checkDemand(p, sol, ref); err != nil {
			t.Fatalf("seed %d, config %s, roots %v: %v", seed, cfg, roots, err)
		}
	})
}
