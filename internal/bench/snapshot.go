package bench

import (
	"encoding/json"
	"runtime"
	"sort"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/stats"
)

// ConfigSnapshot is one configuration's roll-up inside a RunSnapshot:
// aggregate solve wall time plus the telemetry counters that track
// solver effort (rule firings, worklist pressure).
type ConfigSnapshot struct {
	Config string `json:"config"`
	// SolveWallUS is the summed best-of-reps solve time across files, in
	// microseconds — the "total solving work" number CI diffs across PRs.
	SolveWallUS float64 `json:"solve_wall_us"`
	MeanUS      float64 `json:"mean_us"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
	MaxUS       float64 `json:"max_us"`
	// Degraded counts files whose solve exhausted the corpus budget.
	Degraded int `json:"degraded"`
	// Firings sums inference-rule applications across all files.
	Firings core.RuleFirings `json:"firings"`
	// WorklistPeak is the largest per-file worklist high-water mark.
	WorklistPeak int `json:"worklist_peak"`
}

// RunSnapshot is the machine-readable summary of one benchmark run,
// written by pipbench -json. It pins the corpus parameters next to the
// numbers so snapshots from different runs are comparable (or visibly
// not).
type RunSnapshot struct {
	Files      int     `json:"files"`
	Instrs     int     `json:"instrs"`
	Scale      float64 `json:"scale"`
	SizeScale  float64 `json:"size_scale"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Workers    int     `json:"workers"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// OracleWallUS is the EP Oracle's summed per-file minimum.
	OracleWallUS float64          `json:"oracle_wall_us"`
	Configs      []ConfigSnapshot `json:"configs"`
	Headline     HeadlineNumbers  `json:"headline"`
	// Incremental is the incremental re-solve measurement, present when
	// the run included the incremental driver (pipbench -run incremental).
	Incremental *IncrementalResult `json:"incremental,omitempty"`
	// Store is the persistent-store warm-restart measurement, present when
	// the run included the store driver (pipbench -run store).
	Store *StoreResult `json:"store,omitempty"`
}

// Snapshot rolls a runtime measurement into a RunSnapshot. Every
// measured configuration appears, sorted by name, so the JSON is
// deterministic modulo timings.
func Snapshot(c *Corpus, res *RuntimeResult, reps int) RunSnapshot {
	snap := RunSnapshot{
		Files:        len(c.Files),
		Scale:        c.Opts.Scale,
		SizeScale:    c.Opts.SizeScale,
		Seed:         c.Opts.Seed,
		Reps:         reps,
		Workers:      c.Workers,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		OracleWallUS: stats.Sum(res.Oracle),
		Headline:     Headline(res),
	}
	for _, f := range c.Files {
		snap.Instrs += f.Module.NumInstrs()
	}
	names := make([]string, 0, len(res.PerFile))
	for name := range res.PerFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats.Summarize(res.PerFile[name])
		snap.Configs = append(snap.Configs, ConfigSnapshot{
			Config:       name,
			SolveWallUS:  stats.Sum(res.PerFile[name]),
			MeanUS:       s.Mean,
			P50US:        s.P50,
			P99US:        s.P99,
			MaxUS:        s.Max,
			Degraded:     res.Degraded[name],
			Firings:      res.Firings[name],
			WorklistPeak: res.WorklistPeak[name],
		})
	}
	return snap
}

// JSON renders the snapshot as indented JSON with a trailing newline.
func (s RunSnapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}" // unreachable: RunSnapshot has no unmarshalable fields
	}
	return string(b) + "\n"
}
