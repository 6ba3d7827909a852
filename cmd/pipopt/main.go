// Command pipopt runs the alias-analysis-driven optimizations (redundant
// load elimination and dead store elimination) on a mini-C or MIR file,
// comparing how many transformations each alias analysis unlocks — the
// compiler use case from the paper's introduction.
//
// Usage:
//
//	pipopt file.c
//	pipopt -c 'long f(long *p) { ... }' -print
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/alias"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/opt"
)

func main() {
	inline := flag.String("c", "", "inline mini-C source instead of a file")
	isIR := flag.Bool("ir", false, "input is MIR textual IR")
	printAfter := flag.Bool("print", false, "print the optimized MIR")
	configName := flag.String("config", pip.DefaultConfig().String(), "solver configuration")
	budgetStr := flag.String("budget", "", "solve budget, e.g. 100ms, 5000f, or 100ms,5000f; a degraded (budget-exhausted) solution stays sound, so the optimizations remain valid, just weaker")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the Andersen solve (open in Perfetto or chrome://tracing)")
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
			fmt.Fprintln(os.Stderr, "usage: pipopt [flags] file.c")
			os.Exit(2)
		}
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		src = string(data)
		if strings.HasSuffix(name, ".mir") {
			*isIR = true
		}
	}

	compile := func() *ir.Module {
		var m *ir.Module
		var err error
		if *isIR {
			m, err = pip.ParseIR(src)
		} else {
			m, err = pip.CompileC(name, src)
		}
		if err != nil {
			fatal(err)
		}
		return m
	}

	run := func(label string, an func(m *ir.Module) alias.Analysis) *ir.Module {
		m := compile()
		stats := opt.Run(m, an(m))
		fmt.Printf("%-22s %3d loads eliminated, %3d stores eliminated\n",
			label, stats.LoadsEliminated, stats.StoresEliminated)
		return m
	}

	var tr *pip.Trace
	var lane pip.TraceLane
	if *tracePath != "" {
		tr = pip.NewTrace("pipopt", 0)
		lane = tr.NewTrack("andersen")
	}

	run("BasicAA only:", func(m *ir.Module) alias.Analysis {
		return alias.NewBasicAA(m)
	})
	optimized := run("Andersen+BasicAA:", func(m *ir.Module) alias.Analysis {
		gen := core.Generate(m)
		sol, err := core.Solve(gen.Problem, cfg, core.SolveOptions{Trace: lane})
		if err != nil {
			fatal(err)
		}
		return alias.Combined{alias.NewBasicAA(m), alias.NewAndersen(gen, sol)}
	})

	if tr != nil {
		if err := tr.WriteChromeFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pipopt: wrote trace (%d records) to %s\n", tr.Len(), *tracePath)
	}
	if *printAfter {
		fmt.Println()
		fmt.Print(ir.Print(optimized))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipopt:", err)
	os.Exit(1)
}
