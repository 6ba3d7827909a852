package ir_test

import (
	"testing"

	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// servePool is the module pool of the service benchmark's serve-solve
// workload (184 modules, about 110k MIR instructions).
var servePool = workload.Options{Seed: 1, Scale: 0.05, SizeScale: 0.1, MaxInstrs: 4000}

// BenchmarkParse parses every pool module from its printed MIR; one op is
// one pass over the pool. It also reports ns/instr, to be read against
// perfbench's ir.parse_ns_per_instr.
func BenchmarkParse(b *testing.B) {
	var srcs []string
	instrs := 0
	for _, f := range workload.GenerateCorpus(servePool) {
		srcs = append(srcs, ir.Print(f.Module))
		instrs += f.Module.NumInstrs()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := ir.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
}

// BenchmarkPrint prints every pool module to a string; one op is one
// pass over the pool.
func BenchmarkPrint(b *testing.B) {
	files := workload.GenerateCorpus(servePool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			ir.Print(f.Module)
		}
	}
}
