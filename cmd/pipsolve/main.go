// Command pipsolve runs the sound points-to analysis on a single mini-C or
// MIR file and reports points-to sets, escape information, and solver
// statistics.
//
// Usage:
//
//	pipsolve [-config CFG] [-ir] [-dump-ir] file
//	pipsolve -c 'int *p; ...'           (inline source)
//	pipsolve -demand p,f.q file         (demand-driven: solve only the queried slice)
//	pipsolve -incremental old.c new.c   (re-solve new.c from old.c's checkpoint)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pip-analysis/pip"
)

func main() {
	configName := flag.String("config", pip.DefaultConfig().String(),
		"solver configuration, e.g. IP+WL(FIFO)+PIP or EP+OVS+WL(LRF)+OCD")
	isIR := flag.Bool("ir", false, "input is MIR textual IR instead of mini-C")
	inline := flag.String("c", "", "inline source instead of a file")
	dumpIR := flag.Bool("dump-ir", false, "print the lowered MIR before the solution")
	dot := flag.Bool("dot", false, "print the solved constraint graph in Graphviz format and exit")
	callGraph := flag.Bool("callgraph", false, "print the call graph in Graphviz format and exit")
	modRef := flag.Bool("modref", false, "print per-function mod/ref summaries and exit")
	budgetStr := flag.String("budget", "", "solve budget, e.g. 100ms, 5000f, or 100ms,5000f; exhausting it yields the sound Ω-degraded solution")
	demandRoots := flag.String("demand", "", "comma-separated pointer names (e.g. p,f.q): solve only the constraint slice reachable from them; everything else answers Ω")
	incrBase := flag.String("incremental", "", "path to a baseline version of the input: the baseline is solved first and the input re-solves incrementally from its checkpoint")
	showStats := flag.Bool("stats", false, "print solver telemetry (phase timers, rule firings, worklist peak)")
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

	name := "<inline>"
	src := *inline
	if src == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pipsolve [flags] file")
			flag.PrintDefaults()
			os.Exit(2)
		}
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		src = string(data)
		if strings.HasSuffix(name, ".mir") || strings.HasSuffix(name, ".ir") {
			*isIR = true
		}
	}

	var tr *pip.Trace
	var lane pip.TraceLane
	if *tracePath != "" {
		tr = pip.NewTrace("pipsolve", 0)
		lane = tr.NewTrack("solve")
	}

	var m *pip.Module
	if *isIR {
		m, err = pip.ParseIR(src)
	} else {
		m, err = pip.CompileC(name, src)
	}
	if err != nil {
		fatal(err)
	}
	var res *pip.Result
	switch {
	case *demandRoots != "":
		roots := splitNames(*demandRoots)
		eng := pip.NewEngine(pip.BatchOptions{Workers: 1})
		br, err := eng.AnalyzeDemand(m, cfg, nil, roots)
		if err != nil {
			fatal(err)
		}
		res = br.Result
		d := br.Demand
		fmt.Printf("demand-driven (roots: %s): explored %d/%d variables, %d/%d constraints\n\n",
			strings.Join(roots, ", "), d.ExploredVars, d.TotalVars,
			d.ExploredConstraints, d.TotalConstraints)
	case *incrBase != "":
		res = solveIncremental(m, cfg, *incrBase, *isIR)
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
		fmt.Fprintf(os.Stderr, "pipsolve: wrote trace (%d records) to %s\n", tr.Len(), *tracePath)
	}

	if *dot {
		fmt.Print(res.ConstraintGraphDOT())
		return
	}
	if *callGraph {
		fmt.Print(res.CallGraph().DOT())
		return
	}
	if *modRef {
		fmt.Print(res.ModRef(res.CallGraph()).Report())
		return
	}
	if *dumpIR {
		fmt.Println(pip.PrintIR(res.Module))
	}
	fmt.Printf("configuration: %s\n\n", cfg)
	if res.Degraded() {
		fmt.Println("NOTE: the solve exhausted its budget; this is the sound Ω-degraded solution, not the exact fixed point.")
		fmt.Println()
	}
	fmt.Println("points-to sets:")
	fmt.Print(res.Dump())
	ext := res.ExternallyAccessible()
	fmt.Printf("\nexternally accessible objects (%d):\n", len(ext))
	for _, e := range ext {
		fmt.Printf("  %s\n", e)
	}
	st := res.Stats()
	fmt.Printf("\nsolver: %v, %d explicit pointees, %d visits, %d unifications, %d simple edges\n",
		st.Duration, st.ExplicitPointees, st.Visits, st.Unifications, st.SimpleEdges)
	if *showStats {
		fmt.Printf("telemetry: %v\n", res.Telemetry())
	}
}

// solveIncremental analyzes the baseline file, then re-solves the main
// module through the same incremental session, reporting which path the
// update took (reuse, resume from checkpoint, or from-scratch fallback).
func solveIncremental(m *pip.Module, cfg pip.Config, basePath string, isIR bool) *pip.Result {
	data, err := os.ReadFile(basePath)
	if err != nil {
		fatal(err)
	}
	src := string(data)
	var bm *pip.Module
	if isIR || strings.HasSuffix(basePath, ".mir") || strings.HasSuffix(basePath, ".ir") {
		bm, err = pip.ParseIR(src)
	} else {
		bm, err = pip.CompileC(basePath, src)
	}
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
	inc := r1.Incremental
	path := "fell back to a from-scratch solve"
	switch {
	case inc.ReusedSolution:
		path = "reused the baseline solution (empty constraint delta)"
	case inc.Resumed:
		path = "resumed from the baseline checkpoint"
	}
	fmt.Printf("incremental vs %s: %s\n", basePath, path)
	fmt.Printf("  +%d / -%d constraints, %d of %d reused\n",
		inc.Added, inc.Removed, inc.Reused, inc.FullConstraints)
	if inc.FallbackReason != "" {
		fmt.Printf("  fallback reason: %s\n", inc.FallbackReason)
	}
	fmt.Println()
	return r1.Result
}

// splitNames splits a comma-separated flag value, trimming blanks.
func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipsolve:", err)
	os.Exit(1)
}
