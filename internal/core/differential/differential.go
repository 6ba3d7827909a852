package differential

import (
	"fmt"
	"strings"

	"github.com/pip-analysis/pip/internal/core"
)

// Options configures a sweep.
type Options struct {
	// Seeds are the problem-generator seeds; one problem per seed.
	Seeds []int64
	// Gen shapes every generated problem.
	Gen GenOptions
	// Configs are the solver configurations to sweep. Budget on the
	// entries is ignored: the sweep owns that axis. Defaults to
	// RepresentativeConfigs().
	Configs []core.Config
	// Firings are the deterministic firing caps swept; 0 is the
	// unbudgeted solve. Wall-clock deadlines are deliberately not swept:
	// only firing caps degrade deterministically (see core.Budget), so
	// only they can carry a repeatability obligation.
	Firings []int64
}

// DefaultOptions is the configuration used by the gate tests: four seeds,
// the representative config set, and two firing caps bracketing the
// degradation point.
func DefaultOptions() Options {
	return Options{
		Seeds:   []int64{1, 2, 3, 4},
		Gen:     DefaultGen(),
		Firings: []int64{0, 200, 5000},
	}
}

// RepresentativeConfigs covers every solver kind, both pointee
// representations, OVS, each worklist order, every cycle-detection mode,
// difference propagation, and PIP — without paying for the full 304-config
// product on every sweep cell.
func RepresentativeConfigs() []core.Config {
	return []core.Config{
		{Rep: core.EP, Solver: core.Naive},
		{Rep: core.IP, OVS: true, Solver: core.Naive},
		{Rep: core.EP, Solver: core.Wave},
		{Rep: core.IP, OVS: true, Solver: core.Wave},
		{Rep: core.EP, Solver: core.Worklist, Order: core.FIFO},
		{Rep: core.EP, Solver: core.Worklist, Order: core.LIFO, LCD: true},
		{Rep: core.EP, OVS: true, Solver: core.Worklist, Order: core.LRF, OCD: true},
		{Rep: core.IP, Solver: core.Worklist, Order: core.LRF2, HCD: true, DP: true},
		{Rep: core.IP, Solver: core.Worklist, Order: core.Topo, DP: true},
		{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO, PIP: true},
		{Rep: core.IP, OVS: true, Solver: core.Worklist, Order: core.LRF, OCD: true, DP: true, PIP: true},
		{Rep: core.IP, Solver: core.Worklist, Order: core.LIFO, HCD: true, LCD: true, PIP: true},
	}
}

// Mismatch is one cell whose solve broke an obligation.
type Mismatch struct {
	Seed    int64
	Config  string
	Firings int64
	Detail  string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("seed %d, config %q, firings %d: %s",
		m.Seed, m.Config, m.Firings, m.Detail)
}

// Report is the outcome of a sweep.
type Report struct {
	Problems   int
	Cells      int
	Solves     int
	Mismatches []Mismatch
}

// OK reports whether every cell met its obligations.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential: %d problems, %d cells, %d solves\n",
		r.Problems, r.Cells, r.Solves)
	if r.OK() {
		b.WriteString("every cell matches the reference\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d mismatches:\n", len(r.Mismatches))
	for i, m := range r.Mismatches {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.Mismatches)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", m)
	}
	return b.String()
}

// outcome reduces one solve to comparable form.
type outcome struct {
	fingerprint string
	canonical   string
	degraded    bool
	err         string
}

func solveCell(p *core.Problem, cfg core.Config, firings int64) outcome {
	cfg.Budget = core.Budget{Firings: firings}
	sol, err := core.Solve(p, cfg, core.SolveOptions{})
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{
		fingerprint: sol.Fingerprint(),
		canonical:   sol.Canonical(),
		degraded:    sol.Degraded,
	}
}

// Sweep runs the full matrix. Every (seed, config, firing-cap) cell is
// solved twice and checked against core.ReferenceSolve, the independent
// map-based fixed point that shares no code with the solver:
//
//   - an unbudgeted cell's Solution.Canonical must equal the reference;
//   - a capped cell must be either exact (not Degraded, Canonical equal to
//     the reference) or the Ω-degraded solution (core.DegradedSolution);
//   - the two solves must agree on Solution.Fingerprint (explicit sets,
//     flags, escaped set and cycle representatives) and on Degraded: a
//     firing cap degrades deterministically or not at all.
func Sweep(opt Options) *Report {
	if len(opt.Seeds) == 0 {
		opt.Seeds = DefaultOptions().Seeds
	}
	if len(opt.Configs) == 0 {
		opt.Configs = RepresentativeConfigs()
	}
	firings := opt.Firings
	if len(firings) == 0 {
		firings = []int64{0}
	}

	rep := &Report{Problems: len(opt.Seeds)}
	for _, seed := range opt.Seeds {
		p := Generate(seed, opt.Gen)
		want := core.ReferenceSolve(p)
		degraded := core.DegradedSolution(p).Canonical()
		for _, cfg := range opt.Configs {
			for _, fcap := range firings {
				rep.Cells++
				cell := func(detail string) {
					rep.Mismatches = append(rep.Mismatches, Mismatch{
						Seed: seed, Config: cfg.String(), Firings: fcap, Detail: detail,
					})
				}
				got := solveCell(p, cfg, fcap)
				again := solveCell(p, cfg, fcap)
				rep.Solves += 2
				switch {
				case got.err != "":
					cell("solve failed: " + got.err)
				case again.err != "":
					cell("repeated solve failed: " + again.err)
				case again.degraded != got.degraded:
					cell(fmt.Sprintf("repeated solve degraded %v, first %v", again.degraded, got.degraded))
				case again.fingerprint != got.fingerprint:
					cell("repeated solve: " + firstDiff(got.fingerprint, again.fingerprint))
				case got.degraded && fcap == 0:
					cell("unbudgeted solve degraded")
				case got.degraded && got.canonical != degraded:
					cell("degraded solve is not the Ω-degraded solution: " + firstDiff(degraded, got.canonical))
				case !got.degraded && got.canonical != want:
					cell(firstDiff(want, got.canonical))
				}
			}
		}
	}
	return rep
}

// firstDiff pinpoints the first differing line of two multi-line dumps.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first divergence at line %d: reference %q vs %q", i, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("dump lengths differ: %d vs %d lines", len(wl), len(gl))
}
