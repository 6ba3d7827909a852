package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/workload"
)

func TestTelemetryJSONRoundTrip(t *testing.T) {
	in := Telemetry{
		Offline:   3 * time.Millisecond,
		Propagate: 17 * time.Millisecond,
		Collapse:  5 * time.Millisecond,
		Firings: RuleFirings{
			Trans: 10, Load: 20, Store: 30, Call: 40, Flag: 50,
		},
		WorklistPeak: 1234,
		Degraded:     true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Durations must serialize as integer nanoseconds under the _ns names.
	for _, want := range []string{
		`"offline_ns":3000000`, `"propagate_ns":17000000`, `"collapse_ns":5000000`,
		`"worklist_peak":1234`, `"degraded":true`, `"trans":10`, `"flag":50`,
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JSON missing %s:\n%s", want, data)
		}
	}
	var out Telemetry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
}

func TestTelemetryString(t *testing.T) {
	tel := Telemetry{
		Offline:      time.Millisecond,
		Firings:      RuleFirings{Trans: 2, Load: 1},
		WorklistPeak: 7,
	}
	s := tel.String()
	if !strings.Contains(s, "3 firings") || !strings.Contains(s, "worklist peak 7") {
		t.Fatalf("String = %q", s)
	}
	if strings.Contains(s, "DEGRADED") {
		t.Fatalf("non-degraded telemetry renders DEGRADED: %q", s)
	}
	tel.Degraded = true
	if s := tel.String(); !strings.HasSuffix(s, ", DEGRADED") {
		t.Fatalf("degraded telemetry missing marker: %q", s)
	}
}

// TestFiringsTotalBudgetConsistency pins down the accounting contract
// between RuleFirings.Total and Budget.Firings: the cap is compared against
// exactly the sum of the per-rule counters, so a cap at or above an
// unbudgeted solve's Total never degrades (and reproduces the same
// telemetry), while any cap below it does.
func TestFiringsTotalBudgetConsistency(t *testing.T) {
	prob := Generate(workload.GenerateLinked(7).A).Problem
	cfg := Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true}

	exact := MustSolve(prob, cfg)
	f := exact.Telemetry.Firings
	if got := f.Trans + f.Load + f.Store + f.Call + f.Flag; got != f.Total() {
		t.Fatalf("Total() = %d, field sum = %d", f.Total(), got)
	}
	if f.Total() == 0 {
		t.Fatal("workload produced no firings; test is vacuous")
	}

	capped := cfg
	capped.Budget.Firings = f.Total()
	under := MustSolve(prob, capped)
	if under.Degraded {
		// The cap is b.Firings <= fired-so-far checked *before* the next
		// firing, so a cap equal to the exact total still aborts on the
		// loop iteration after the last firing... unless the solve finishes
		// first. Give it one slack firing to make the contract crisp.
		capped.Budget.Firings = f.Total() + 1
		under = MustSolve(prob, capped)
		if under.Degraded {
			t.Fatal("cap of Total+1 still degraded")
		}
	}
	if under.Telemetry.Firings != f {
		t.Fatalf("budgeted-but-unexhausted telemetry differs: %+v vs %+v",
			under.Telemetry.Firings, f)
	}

	capped.Budget.Firings = f.Total() / 2
	over := MustSolve(prob, capped)
	if !over.Degraded || !over.Telemetry.Degraded {
		t.Fatalf("cap of Total/2 did not degrade (Degraded=%v, tel=%v)",
			over.Degraded, over.Telemetry.Degraded)
	}
	// The budget check is strided (loop tops and every 64 inner
	// iterations), so the abort lands at or shortly after the cap — never
	// anywhere near the unbudgeted total.
	if got := over.Telemetry.Firings.Total(); got < f.Total()/2 || got >= f.Total() {
		t.Fatalf("degraded solve fired %d times, cap %d, exact total %d",
			got, f.Total()/2, f.Total())
	}

	capped.Budget.Firings = -1
	now := MustSolve(prob, capped)
	if !now.Degraded {
		t.Fatal("negative cap did not degrade immediately")
	}
}

// TestSolveTracedSpans asserts the trace contract the -trace flag relies
// on: a traced solve records the offline/propagate/collapse phase spans, an
// scc_collapse event for each collapsed cycle, and convergence-profile
// counter samples — and tracing does not change the solution.
func TestSolveTracedSpans(t *testing.T) {
	prob := NewProblem()
	x := prob.AddVar("x", Memory, false)
	vars := make([]VarID, 4)
	for i := range vars {
		vars[i] = prob.AddVar(string(rune('a'+i)), Register, true)
	}
	prob.AddBase(vars[0], x)
	// a → b → c → a is a simple-edge cycle; OCD collapses it up front.
	prob.AddSimple(vars[1], vars[0])
	prob.AddSimple(vars[2], vars[1])
	prob.AddSimple(vars[0], vars[2])
	prob.AddSimple(vars[3], vars[2])

	cfg := Config{Rep: IP, Solver: Worklist, Order: FIFO, OCD: true, PIP: true}
	tr := obs.New("test-solve", 1<<12)
	sol, err := Solve(prob, cfg, SolveOptions{Trace: tr.NewTrack("solver")})
	if err != nil {
		t.Fatal(err)
	}
	plain := MustSolve(prob, cfg)
	for _, v := range vars {
		got, want := fmt.Sprint(sol.PointsTo(v)), fmt.Sprint(plain.PointsTo(v))
		if got != want {
			t.Fatalf("tracing changed the solution at var %d: %s vs %s", v, got, want)
		}
	}

	tree := tr.Tree()
	for _, want := range []string{"solve", "offline", "propagate", "collapse",
		"scc_collapse", "worklist_depth", "explicit_pointees"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("trace tree missing %q:\n%s", want, tree)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("small solve dropped %d records", tr.Dropped())
	}
}
