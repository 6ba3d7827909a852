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
// one pass over the pool.
func BenchmarkParse(b *testing.B) {
	var srcs []string
	for _, f := range workload.GenerateCorpus(servePool) {
		srcs = append(srcs, ir.Print(f.Module))
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
