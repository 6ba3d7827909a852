// Command pipalias runs the alias-analysis precision client on one mini-C
// file, comparing BasicAA, the sound Andersen analysis, and their
// combination (the paper's Figure 9 setup, on a single file).
//
// Usage:
//
//	pipalias file.c
//	pipalias -c 'void f(int *p) { ... }'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/alias"
)

func main() {
	inline := flag.String("c", "", "inline mini-C source instead of a file")
	configName := flag.String("config", pip.DefaultConfig().String(), "solver configuration")
	budgetStr := flag.String("budget", "", "solve budget, e.g. 100ms, 5000f, or 100ms,5000f")
	demandRoots := flag.String("demand", "", "comma-separated pointer names: solve only the constraint slice reachable from them (alias answers stay sound; unexplored pointers answer MayAlias)")
	incrBase := flag.String("incremental", "", "path to a baseline version of the file: the baseline is solved first and the input re-solves incrementally from its checkpoint")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the solve (open in Perfetto or chrome://tracing)")
	chaosSpec := flag.String("chaos", "", "arm deterministic fault injection from a spec, e.g. seed=42;engine.dispatch=error:0.01 (see the fault model section of DESIGN.md)")
	flag.Parse()

	if *chaosSpec != "" {
		if _, err := pip.ArmChaos(*chaosSpec); err != nil {
			fatal(err)
		}
	}

	cfg, err := pip.ParseConfig(*configName)
	if err != nil {
		fatal(err)
	}
	if *budgetStr != "" {
		b, err := pip.ParseBudget(*budgetStr)
		if err != nil {
			fatal(err)
		}
		cfg.Budget = b
	}
	name, src := "<inline>", *inline
	if src == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pipalias [flags] file.c")
			os.Exit(2)
		}
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	var tr *pip.Trace
	var lane pip.TraceLane
	if *tracePath != "" {
		tr = pip.NewTrace("pipalias", 0)
		lane = tr.NewTrack("solve")
	}
	m, err := pip.CompileC(name, src)
	if err != nil {
		fatal(err)
	}
	var res *pip.Result
	switch {
	case *demandRoots != "":
		var roots []string
		for _, part := range strings.Split(*demandRoots, ",") {
			if part = strings.TrimSpace(part); part != "" {
				roots = append(roots, part)
			}
		}
		eng := pip.NewEngine(pip.BatchOptions{Workers: 1})
		br, err := eng.AnalyzeDemand(m, cfg, nil, roots)
		if err != nil {
			fatal(err)
		}
		res = br.Result
		d := br.Demand
		fmt.Printf("demand-driven (roots: %s): explored %d/%d variables, %d/%d constraints\n",
			strings.Join(roots, ", "), d.ExploredVars, d.TotalVars,
			d.ExploredConstraints, d.TotalConstraints)
	case *incrBase != "":
		data, err := os.ReadFile(*incrBase)
		if err != nil {
			fatal(err)
		}
		bm, err := pip.CompileC(*incrBase, string(data))
		if err != nil {
			fatal(err)
		}
		eng := pip.NewEngine(pip.BatchOptions{Workers: 1})
		sess := eng.NewSession(cfg)
		if r0 := sess.Analyze(bm); r0.Err != nil {
			fatal(r0.Err)
		}
		r1 := sess.Analyze(m)
		if r1.Err != nil {
			fatal(r1.Err)
		}
		res = r1.Result
		inc := r1.Incremental
		path := "from-scratch fallback"
		switch {
		case inc.ReusedSolution:
			path = "reused baseline solution"
		case inc.Resumed:
			path = "resumed from checkpoint"
		}
		fmt.Printf("incremental vs %s: %s (+%d/-%d constraints, %d of %d reused)\n",
			*incrBase, path, inc.Added, inc.Removed, inc.Reused, inc.FullConstraints)
	default:
		res, err = pip.AnalyzeTraced(m, cfg, lane)
		if err != nil {
			fatal(err)
		}
	}
	if tr != nil {
		if err := tr.WriteChromeFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pipalias: wrote trace (%d records) to %s\n", tr.Len(), *tracePath)
	}
	if res.Degraded() {
		fmt.Println("NOTE: budget exhausted; precision below reflects the sound Ω-degraded solution.")
	}
	aa := res.AliasAnalysis()
	report := func(label string, an alias.Analysis) {
		stats := alias.ConflictRate(res.Module, an)
		fmt.Printf("%-20s %6d queries: %5.1f%% MayAlias, %5.1f%% NoAlias, %5.1f%% MustAlias\n",
			label, stats.Total(),
			100*rate(stats.MayAlias, stats.Total()),
			100*rate(stats.NoAlias, stats.Total()),
			100*rate(stats.MustAlias, stats.Total()))
	}
	report("BasicAA", aa.Basic)
	report("Andersen", aa.Andersen)
	report("Andersen+BasicAA", aa.Combined)
}

func rate(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipalias:", err)
	os.Exit(1)
}
