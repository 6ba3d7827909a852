package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/obs"
)

// IncrementalConfig is the configuration the incremental driver measures.
// It must be resumable (core.Resumable): identity representation, worklist
// solver, no unification passes and no budget — otherwise every edit would
// fall back to a from-scratch solve and the driver would measure nothing.
// Difference propagation is on the resumable trajectory and keeps the
// from-scratch baseline tractable on the corpus's big cyclic files (cycle
// collapse, which would also help, is not resumable).
var IncrementalConfig = core.Config{Rep: core.IP, Solver: core.Worklist, Order: core.FIFO, DP: true}

// IncrementalResult summarizes the incremental re-solve measurement: for
// every corpus file, a small monotone edit is re-solved once from scratch
// and once by resuming the previous generation's checkpoint. Times are
// summed best-of-reps across files, in microseconds.
type IncrementalResult struct {
	Config string `json:"config"`
	Files  int    `json:"files"`
	// EditConstraints is the number of constraints each edit adds.
	EditConstraints int `json:"edit_constraints"`
	// ScratchUS sums the from-scratch re-solve of every edited file.
	ScratchUS float64 `json:"scratch_us"`
	// ResolveUS sums the incremental re-solve (summary diff + resume).
	ResolveUS float64 `json:"resolve_us"`
	// Speedup is ScratchUS / ResolveUS.
	Speedup float64 `json:"speedup"`
	// Resumed and Fallbacks count which path each file's update took.
	Resumed   int `json:"resumed"`
	Fallbacks int `json:"fallbacks"`
	// ReusedConstraints sums the constraints carried over across files.
	ReusedConstraints int `json:"reused_constraints"`
}

// MeasureIncremental times re-solving a small edit of every corpus file,
// incrementally versus from scratch. The baseline solve of the unedited
// file (which establishes the checkpoint) is untimed setup: the scenario
// is a long-lived analysis session absorbing an edit, where generation 0
// was paid long ago. Both paths are verified to produce bit-identical
// fingerprints; a mismatch panics, since it would invalidate the numbers.
func MeasureIncremental(c *Corpus, reps int) IncrementalResult {
	cfg := IncrementalConfig
	if reps < 1 {
		reps = 1
	}
	res := IncrementalResult{Config: cfg.String(), Files: len(c.Files), EditConstraints: 2}
	for _, f := range c.Files {
		base := f.Gen.Problem

		// The edit: one fresh pointer aimed at one fresh object, plus a
		// copy into an existing variable — the shape of adding a local
		// and an assignment to a function body.
		edited := base.Clone()
		p := edited.AddVar("__edit_p", core.Register, true)
		obj := edited.AddVar("__edit_obj", core.Memory, true)
		edited.AddBase(p, obj)
		edited.AddSimple(0, p)

		st, err := incr.New(base, cfg, obs.Track{})
		if err != nil {
			panic(fmt.Sprintf("bench: incremental baseline %s failed: %v", f.Name, err))
		}

		var scratchBest, incrBest time.Duration
		var scratchSol *core.Solution
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			sol := core.MustSolve(edited, cfg)
			if d := time.Since(t0); rep == 0 || d < scratchBest {
				scratchBest, scratchSol = d, sol
			}
		}
		var nst *incr.State
		var stats *incr.UpdateStats
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			s, us, err := st.Update(edited, obs.Track{})
			if err != nil {
				panic(fmt.Sprintf("bench: incremental update %s failed: %v", f.Name, err))
			}
			if d := time.Since(t0); rep == 0 || d < incrBest {
				incrBest, nst, stats = d, s, us
			}
		}
		if nst.Sol.Fingerprint() != scratchSol.Fingerprint() {
			panic(fmt.Sprintf("bench: incremental re-solve of %s differs from scratch", f.Name))
		}
		res.ScratchUS += float64(scratchBest.Nanoseconds()) / 1e3
		res.ResolveUS += float64(incrBest.Nanoseconds()) / 1e3
		if stats.Resumed {
			res.Resumed++
		} else {
			res.Fallbacks++
		}
		res.ReusedConstraints += stats.Reused
	}
	if res.ResolveUS > 0 {
		res.Speedup = res.ScratchUS / res.ResolveUS
	}
	return res
}

// RenderIncremental formats the measurement for the terminal.
func RenderIncremental(r IncrementalResult) string {
	var b strings.Builder
	b.WriteString("Incremental re-solve: small edit, resume vs from-scratch\n")
	fmt.Fprintf(&b, "  configuration:        %s\n", r.Config)
	fmt.Fprintf(&b, "  files:                %d (%d resumed, %d fell back)\n",
		r.Files, r.Resumed, r.Fallbacks)
	fmt.Fprintf(&b, "  edit size:            +%d constraints per file\n", r.EditConstraints)
	fmt.Fprintf(&b, "  from-scratch:         %10.0f us\n", r.ScratchUS)
	fmt.Fprintf(&b, "  incremental:          %10.0f us (%d constraints reused)\n",
		r.ResolveUS, r.ReusedConstraints)
	fmt.Fprintf(&b, "  speedup:              %.1fx\n", r.Speedup)
	return b.String()
}
