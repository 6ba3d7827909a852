// Command pipgen generates the synthetic benchmark corpus (the stand-in
// for the paper's Table III programs) and writes it to disk as MIR files.
// Serialization fans out across the engine's worker pool; generation
// itself is one seeded PRNG stream and stays sequential so the corpus is
// byte-identical at any worker count.
//
// Usage:
//
//	pipgen -out corpus/ [-scale 0.1] [-sizescale 0.25] [-seed 1] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/workload"
)

func main() {
	out := flag.String("out", "corpus", "output directory")
	scale := flag.Float64("scale", 0.1, "file-count scale (1.0 = the paper's 3659 files)")
	sizeScale := flag.Float64("sizescale", 0.25, "per-file size scale (1.0 = the paper's sizes)")
	maxInstrs := flag.Int("maxinstrs", 0, "optional per-file instruction cap (0 = none)")
	seed := flag.Int64("seed", 1, "corpus seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size for printing/writing (0 = GOMAXPROCS)")
	showStats := flag.Bool("stats", false, "solve every generated file under the default configuration and print engine stats with aggregated solver telemetry as JSON")
	budgetStr := flag.String("budget", "", "per-solve budget for -stats, e.g. 100ms, 5000f, or 100ms,5000f")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the -stats solve phase (open in Perfetto or chrome://tracing)")
	chaosSpec := flag.String("chaos", "", "arm deterministic fault injection from a spec, e.g. seed=42;engine.dispatch=error:0.01 (see the fault model section of DESIGN.md)")
	flag.Parse()

	if *chaosSpec != "" {
		reg, err := faults.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		faults.Arm(reg)
	}

	opts := workload.Options{Seed: *seed, Scale: *scale, SizeScale: *sizeScale, MaxInstrs: *maxInstrs}
	files := workload.GenerateCorpus(opts)
	errs := make([]error, len(files))
	var totalInstrs int64
	engine.RunIndexed(len(files), *workers, func(i int) {
		f := files[i]
		path := filepath.Join(*out, f.Name+".mir")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			errs[i] = err
			return
		}
		if err := os.WriteFile(path, []byte(ir.Print(f.Module)), 0o644); err != nil {
			errs[i] = err
			return
		}
		atomic.AddInt64(&totalInstrs, int64(f.Module.NumInstrs()))
	})
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d files (%d IR instructions) to %s\n", len(files), totalInstrs, *out)

	if *tracePath != "" && !*showStats {
		fatal(fmt.Errorf("-trace records the solve phase, which only runs with -stats"))
	}
	if *showStats {
		var budget core.Budget
		if *budgetStr != "" {
			b, err := core.ParseBudget(*budgetStr)
			if err != nil {
				fatal(err)
			}
			budget = b
		}
		var tr *obs.Trace
		if *tracePath != "" {
			tr = obs.New("pipgen", 0)
		}
		eng := engine.New(engine.Options{Workers: *workers, Budget: budget, Trace: tr})
		jobs := make([]engine.Job, len(files))
		for i, f := range files {
			jobs[i] = engine.Job{Module: f.Module, Config: core.DefaultConfig()}
		}
		for i, r := range eng.Run(jobs) {
			if r.Err != nil {
				fatal(fmt.Errorf("%s: %v", files[i].Name, r.Err))
			}
		}
		st := eng.Stats()
		fmt.Printf("%s\n%s\n", st, st.JSON())
		if tr != nil {
			if err := tr.WriteChromeFile(*tracePath); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote trace (%d records) to %s\n", tr.Len(), *tracePath)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipgen:", err)
	os.Exit(1)
}
