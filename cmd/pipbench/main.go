// Command pipbench regenerates the paper's evaluation: Table III (corpus),
// Figure 9 (alias precision), Table V (solver runtime), Figure 10 (runtime
// ratios), Table VI (explicit pointees), and the headline numbers from the
// running text. Results are printed and, with -out, written to files named
// like the paper artifact's outputs.
//
// Usage:
//
//	pipbench [-scale 0.1] [-sizescale 0.25] [-reps 3] [-workers 0] [-out results/]
//	pipbench -run table5,headline
//	pipbench -run smoke          # engine smoke test: parallel vs sequential
//	pipbench -run incremental    # incremental re-solve of a small edit vs from-scratch
//	pipbench -run store          # persistent-store warm restart vs cold solve
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/pip-analysis/pip/internal/bench"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.1, "file-count scale (1.0 = the paper's 3659 files)")
	sizeScale := flag.Float64("sizescale", 0.25, "per-file size scale")
	maxInstrs := flag.Int("maxinstrs", 0, "optional per-file instruction cap (0 = none)")
	noPath := flag.Bool("nopathological", false, "exclude the escape-heavy outlier files")
	seed := flag.Int64("seed", 1, "corpus seed")
	reps := flag.Int("reps", 3, "timing repetitions per file/configuration (paper: 50)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker-pool size (0 = GOMAXPROCS)")
	out := flag.String("out", "", "directory to write result files to")
	run := flag.String("run", "all", "comma-separated subset: table3,fig9,table5,fig10,table6,headline,smoke,incremental,store")
	budgetStr := flag.String("budget", "", "per-solve budget, e.g. 100ms, 5000f, or 100ms,5000f; files that exhaust it degrade soundly")
	showStats := flag.Bool("stats", false, "print aggregated engine stats and solver telemetry as JSON at the end")
	cacheEntries := flag.Int("cache-entries", 0, "solution-cache capacity for caching drivers (0 = unbounded)")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark snapshot (per-configuration solve wall, rule firings, worklist peak) to this file; implies the runtime measurement")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the measurement's job and solve spans (open in Perfetto or chrome://tracing)")
	chaosSpec := flag.String("chaos", "", "arm deterministic fault injection from a spec, e.g. seed=42;engine.dispatch=error:0.01 (see the fault model section of DESIGN.md)")
	flag.Parse()

	if *chaosSpec != "" {
		reg, err := faults.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		faults.Arm(reg)
	}

	known := map[string]bool{"all": true, "table3": true, "fig9": true, "table5": true,
		"fig10": true, "table6": true, "headline": true, "smoke": true, "incremental": true,
		"store": true}
	want := map[string]bool{}
	for _, k := range strings.Split(*run, ",") {
		k = strings.TrimSpace(k)
		if !known[k] {
			fatal(fmt.Errorf("unknown -run target %q (valid: table3,fig9,table5,fig10,table6,headline,smoke,incremental,store,all)", k))
		}
		want[k] = true
	}
	enabled := func(k string) bool { return want["all"] || want[k] }

	emit := func(file, content string) {
		fmt.Println(content)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*out, file), []byte(content), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	opts := workload.Options{
		Seed: *seed, Scale: *scale, SizeScale: *sizeScale,
		MaxInstrs: *maxInstrs, NoPathological: *noPath,
	}
	start := time.Now()
	fmt.Printf("building corpus (scale=%g, sizescale=%g, seed=%d, workers=%d)...\n",
		*scale, *sizeScale, *seed, *workers)
	corpus := bench.BuildCorpusParallel(opts, *workers)
	if *budgetStr != "" {
		b, err := core.ParseBudget(*budgetStr)
		if err != nil {
			fatal(err)
		}
		corpus.Budget = b
	}
	corpus.CacheEntries = *cacheEntries
	var tr *obs.Trace
	if *tracePath != "" {
		// The measurement loop emits a span per job plus per-solve phase
		// spans; size the ring for a full default run.
		tr = obs.New("pipbench", 1<<18)
		corpus.Trace = tr
	}
	fmt.Printf("%s [%.1fs]\n\n", corpus, time.Since(start).Seconds())

	if enabled("table3") {
		emit("file-sizes-table.txt", bench.Table3(corpus))
	}
	// The smoke test re-solves the corpus several times over; it runs only
	// when requested explicitly, not as part of -run all.
	if want["smoke"] {
		fmt.Println("running engine smoke test (sequential vs parallel)...")
		emit("engine-smoke.txt", bench.Smoke(corpus, *workers))
	}
	if enabled("fig9") {
		fmt.Println("running precision client (Figure 9)...")
		emit("precision.txt", bench.RenderFigure9(bench.Figure9(corpus)))
	}
	var incRes *bench.IncrementalResult
	if enabled("incremental") {
		fmt.Println("measuring incremental re-solve (small edit, resume vs from-scratch)...")
		t := time.Now()
		r := bench.MeasureIncremental(corpus, *reps)
		incRes = &r
		fmt.Printf("incremental measurement done [%.1fs]\n\n", time.Since(t).Seconds())
		emit("incremental-resolve.txt", bench.RenderIncremental(r))
	}
	var storeRes *bench.StoreResult
	if enabled("store") {
		fmt.Println("measuring persistent-store warm restart (cold solve+flush vs verified disk hits)...")
		dir, err := os.MkdirTemp("", "pipbench-store-*")
		if err != nil {
			fatal(err)
		}
		t := time.Now()
		r := bench.MeasureStore(corpus, dir)
		storeRes = &r
		os.RemoveAll(dir)
		fmt.Printf("store measurement done [%.1fs]\n\n", time.Since(t).Seconds())
		emit("store-warm-restart.txt", bench.RenderStore(r))
	}
	needRuntime := enabled("table5") || enabled("fig10") || enabled("table6") ||
		enabled("headline") || *jsonPath != ""
	if needRuntime {
		fmt.Printf("measuring solver runtime (%d configurations x %d files x %d reps)...\n",
			len(bench.Table5Configs)+len(bench.EPOracleConfigs), len(corpus.Files), *reps)
		t := time.Now()
		res := bench.MeasureRuntimeVerbose(corpus, *reps, func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		})
		fmt.Printf("measurement done [%.1fs]\n\n", time.Since(t).Seconds())
		if enabled("table5") {
			emit("configuration-runtimes-table.txt", bench.Table5(res))
		}
		if enabled("fig10") {
			emit("runtime-ratios.txt", bench.Figure10(res))
			if *out != "" {
				if err := os.WriteFile(filepath.Join(*out, "runtime-ratios.csv"),
					[]byte(bench.Figure10CSV(res)), 0o644); err != nil {
					fatal(err)
				}
			}
		}
		if enabled("table6") {
			emit("configuration-memory-usage-table.txt",
				bench.Table6(res)+"\n"+bench.RenderScalability(res))
		}
		if enabled("headline") {
			emit("headline.txt", bench.RenderHeadline(bench.Headline(res)))
		}
		if *jsonPath != "" {
			snap := bench.Snapshot(corpus, res, *reps)
			snap.Incremental = incRes
			snap.Store = storeRes
			if err := os.WriteFile(*jsonPath, []byte(snap.JSON()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote benchmark snapshot to %s\n", *jsonPath)
		}
	}
	if tr != nil {
		if err := tr.WriteChromeFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace (%d records, %d dropped) to %s\n", tr.Len(), tr.Dropped(), *tracePath)
	}
	if *showStats {
		st := corpus.EngineStats()
		fmt.Printf("\n%s\n%s\n", st, st.JSON())
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, "engine-stats.json"),
				[]byte(st.JSON()+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipbench:", err)
	os.Exit(1)
}
