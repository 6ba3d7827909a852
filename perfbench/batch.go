package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// batchCorpus is the make bench-snapshot corpus: 74 files and 53,671 MIR
// instructions. It is the same for every --seed: per-file solve-time
// quantiles of a 74-file generated corpus move by 15-30% from one corpus
// seed to the next (perfbench/README.md), far more than any change the
// benchmark should resolve, so batch-solve measures one fixed corpus.
var batchCorpus = workload.Options{Seed: 1, Scale: 0.02, SizeScale: 0.1, MaxInstrs: 4000}

// tableVConfigs are the four Table V configurations every file is solved
// under, each with its engine.Job.Reps: a job keeps the fastest of that
// many solves (the Table V method). The cheap configurations' reps are
// scaled so each spends about as long per round as IP+WL(FIFO) (one pass
// single-core: 1.98 s, 0.52 s, 0.12 s, 0.019 s) and is measured over
// enough solves to be steady. EP+OVS+WL(LRF)+OCD keeps the fastest of 3:
// its single solves of the same file varied up to 2.7x from round to
// round (the other worker's allocation drives the collector), and its
// files set p95_ms.
var tableVConfigs = []struct {
	Name string
	Reps int
}{
	{"EP+OVS+WL(LRF)+OCD", 3},
	{"IP+WL(FIFO)", 2},
	{"IP+WL(FIFO)+LCD+DP", 8},
	{"IP+WL(FIFO)+PIP", 32},
}

type batchFile struct {
	Name   string
	Gen    *core.Gen
	Instrs int
}

// setupBatch generates the corpus, prints each module to MIR text and
// reads it back the way a batch tool reads files: ir.Parse, then
// core.Generate.
func setupBatch() ([]batchFile, error) {
	files := workload.GenerateCorpus(batchCorpus)
	out := make([]batchFile, len(files))
	for i, f := range files {
		m, err := ir.Parse(ir.Print(f.Module))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		out[i] = batchFile{Name: f.Name, Gen: core.Generate(m), Instrs: m.NumInstrs()}
	}
	return out, nil
}

// pairCounts are the deterministic counts of one (file, configuration)
// solve; they must repeat exactly on every solve of the pair.
type pairCounts struct {
	Firings      int64
	WorklistPeak int
}

// runBatch repeats whole rounds over the corpus for the window. A
// (file, configuration) pair's time is the median over rounds of its
// fastest-of-reps time: unlike a minimum over every solve, it does not keep
// falling with the number of rounds a run happens to fit.
func runBatch(e *env) (*report, error) {
	files, setupS, err := timedSetups(setupBatch, func([]batchFile) {})
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, len(tableVConfigs))
	for i, c := range tableVConfigs {
		cfgs[i] = core.MustParseConfig(c.Name)
	}
	totalInstrs := 0
	for _, f := range files {
		totalInstrs += f.Instrs
	}
	r := &report{Workload: "batch-solve"}
	eng := engine.New(engine.Options{Workers: runtime.NumCPU()})

	nf := len(files)
	// times[ci][i] holds pair (i, ci)'s fastest-of-reps time per round.
	times := make([][][]float64, len(cfgs))
	counts := make([][]pairCounts, len(cfgs))
	first := make([][]*core.Solution, len(cfgs))
	last := make([][]*core.Solution, len(cfgs))
	// tputs[ci] holds configuration ci's throughput in each round.
	tputs := make([][]float64, len(cfgs))
	for ci := range cfgs {
		times[ci] = make([][]float64, nf)
		counts[ci] = make([]pairCounts, nf)
		first[ci] = make([]*core.Solution, nf)
		last[ci] = make([]*core.Solution, nf)
	}
	runtime.GC()
	deadline := time.Now().Add(time.Duration(e.Seconds * float64(time.Second)))
	rounds := 0
	for ; rounds < 2 || time.Now().Before(deadline); rounds++ {
		for ci, cfg := range cfgs {
			reps := tableVConfigs[ci].Reps
			jobs := make([]engine.Job, nf)
			for i, f := range files {
				jobs[i] = engine.Job{Gen: f.Gen, Config: cfg, Reps: reps}
			}
			start := time.Now()
			res := eng.Run(jobs)
			wall := time.Since(start)
			solved := 0
			for i, rs := range res {
				r.Attempted++
				switch {
				case rs.Err != nil:
					r.fail("%s %s: %v", files[i].Name, tableVConfigs[ci].Name, rs.Err)
					continue
				case rs.Degraded:
					r.fail("%s %s: degraded", files[i].Name, tableVConfigs[ci].Name)
					continue
				}
				solved += files[i].Instrs * reps
				c := pairCounts{rs.Sol.Telemetry.Firings.Total(), rs.Sol.Telemetry.WorklistPeak}
				times[ci][i] = append(times[ci][i], ms(rs.Duration))
				if rounds == 0 {
					counts[ci][i], first[ci][i] = c, rs.Sol
				} else if c != counts[ci][i] {
					r.fail("%s %s: counts %+v then %+v", files[i].Name, tableVConfigs[ci].Name, counts[ci][i], c)
				}
				last[ci][i] = rs.Sol
			}
			tputs[ci] = append(tputs[ci], float64(solved)/wall.Seconds()/1e3)
		}
	}
	peak, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	// Outside the timed window: every configuration's solution must equal
	// the reference solver's, and the first and last rounds must agree on
	// fingerprint and size.
	verifyBatch(r, files, cfgs, first, last)

	var pairs []float64
	for ci := range cfgs {
		for i := range files {
			if len(times[ci][i]) > 0 {
				pairs = append(pairs, median(times[ci][i]))
			}
		}
	}
	// Per configuration, the median round; across configurations, the
	// geometric mean, so that EP+OVS+WL(LRF)+OCD (three quarters of a
	// round) does not swamp the other three.
	tput := make([]float64, len(cfgs))
	for ci := range cfgs {
		tput[ci] = median(tputs[ci])
	}
	r.add("setup_s", setupS, "s", setupRepeats)
	r.add("p50_ms", quantile(pairs, 0.50), "ms", len(pairs))
	r.add("p95_ms", quantile(pairs, 0.95), "ms", len(pairs))
	r.add("throughput_kinstr_s", geomean(tput), "kinstr/s", rounds*len(cfgs))
	r.add("peak_rss_mb", peak, "MB", 1)
	r.Notes = append(r.Notes, fmt.Sprintf("%d files, %d MIR instructions, %d rounds, %d workers",
		nf, totalInstrs, rounds, runtime.NumCPU()))
	for ci, c := range tableVConfigs {
		r.Notes = append(r.Notes, fmt.Sprintf("%-20s x%-3d %9.1f kinstr/s (median of %d rounds)", c.Name, c.Reps, tput[ci], len(tputs[ci])))
	}
	return r, nil
}

// verifyBatch checks every solution against core.ReferenceSolve, which
// shares no code with the solver, and the first round against the last.
func verifyBatch(r *report, files []batchFile, cfgs []core.Config, first, last [][]*core.Solution) {
	var mu sync.Mutex
	engine.RunIndexed(len(files), runtime.NumCPU(), func(i int) {
		ref := core.ReferenceSolve(files[i].Gen.Problem)
		var errs []string
		for ci := range cfgs {
			a, b := first[ci][i], last[ci][i]
			if a == nil || b == nil {
				continue // already counted as failed
			}
			if a.Canonical() != ref {
				errs = append(errs, fmt.Sprintf("%s %s: solution differs from ReferenceSolve", files[i].Name, tableVConfigs[ci].Name))
			}
			if sha256.Sum256([]byte(a.Fingerprint())) != sha256.Sum256([]byte(b.Fingerprint())) || a.ApproxBytes() != b.ApproxBytes() {
				errs = append(errs, fmt.Sprintf("%s %s: first and last round differ", files[i].Name, tableVConfigs[ci].Name))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, e := range errs {
			r.fail("%s", e)
		}
	})
}
