package differential

import (
	"sync"
	"testing"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/obs"
)

// TestDifferentialSweep is the gate: generator-driven problems across the
// representative configuration set and the firing caps, asserting
// agreement with the reference solver, exact-or-Ω-degraded budget aborts,
// and repeatable Fingerprints and Degraded outcomes.
func TestDifferentialSweep(t *testing.T) {
	rep := Sweep(DefaultOptions())
	t.Logf("%s", rep)
	if !rep.OK() {
		t.Fatalf("differential sweep failed:\n%s", rep)
	}
	if rep.Cells == 0 || rep.Solves < rep.Cells*2 {
		t.Fatalf("sweep ran a suspicious amount of work: %+v", rep)
	}
}

// TestDifferentialBudgetBoundary walks firing caps through the region where
// solves flip from degraded to exact, where a schedule-dependent budget
// charge would be most visible. Every cap must degrade repeatably, and to
// the Ω-degraded solution when it does.
func TestDifferentialBudgetBoundary(t *testing.T) {
	caps := []int64{1, 7, 33, 100, 316, 1000, 3163, 10000, 31630, 100000}
	opt := Options{
		Seeds: []int64{7, 11},
		Gen:   GenOptions{Vars: 160, Density: 1.3, Cyclic: true},
		Configs: []core.Config{
			{Rep: core.EP, Solver: core.Worklist, Order: core.FIFO},
			{Rep: core.IP, Solver: core.Worklist, Order: core.LRF, OCD: true, DP: true, PIP: true},
			{Rep: core.EP, Solver: core.Wave},
			{Rep: core.IP, OVS: true, Solver: core.Naive},
		},
		Firings: caps,
	}
	rep := Sweep(opt)
	t.Logf("%s", rep)
	if !rep.OK() {
		t.Fatalf("budget boundary sweep failed:\n%s", rep)
	}
}

// TestDifferentialDense pushes a denser, more cyclic problem through the
// sweep so cycle detection sees big SCCs.
func TestDifferentialDense(t *testing.T) {
	if testing.Short() {
		t.Skip("dense sweep skipped in -short mode")
	}
	opt := Options{
		Seeds:   []int64{42},
		Gen:     GenOptions{Vars: 512, Density: 2.0, Cyclic: true},
		Firings: []int64{0, 20000},
	}
	rep := Sweep(opt)
	t.Logf("%s", rep)
	if !rep.OK() {
		t.Fatalf("dense sweep failed:\n%s", rep)
	}
}

// TestDifferentialGenDeterminism guards replayability: every mismatch is
// reported by seed, which is only useful if the seed regenerates the exact
// problem.
func TestDifferentialGenDeterminism(t *testing.T) {
	a := Generate(3, DefaultGen())
	b := Generate(3, DefaultGen())
	sa, err := core.Solve(a, core.Config{Rep: core.IP, Solver: core.Worklist}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := core.Solve(b, core.Config{Rep: core.IP, Solver: core.Worklist}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Fatal("same seed generated different problems")
	}
	c := Generate(4, DefaultGen())
	sc, err := core.Solve(c, core.Config{Rep: core.IP, Solver: core.Worklist}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() == sc.Fingerprint() {
		t.Fatal("different seeds generated identical problems (generator ignores seed?)")
	}
}

// TestDifferentialRaceTelemetry is the race gate for telemetry and trace
// lanes: a sizable cyclic problem solved with tracing enabled,
// concurrently from several goroutines (each with its own arena,
// engine-style). Run under -race this fails if concurrent solves share a
// counter, a trace buffer, or arena scratch without synchronization.
func TestDifferentialRaceTelemetry(t *testing.T) {
	p := Generate(9, GenOptions{Vars: 384, Density: 1.5, Cyclic: true})
	cfg := core.Config{
		Rep: core.IP, Solver: core.Worklist, Order: core.LRF,
		OCD: true, DP: true, PIP: true,
	}
	ref, err := core.Solve(p, cfg, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := obs.New("differential-race", 1<<12)
			ar := core.NewArena()
			for i := 0; i < 3; i++ {
				sol, err := core.Solve(p, cfg, core.SolveOptions{Trace: tr.NewTrack("solve"), Arena: ar})
				if err != nil {
					errs <- err.Error()
					return
				}
				if sol.Fingerprint() != ref.Fingerprint() {
					errs <- "concurrent solve diverged from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
