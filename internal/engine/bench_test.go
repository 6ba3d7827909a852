package engine

import (
	"testing"

	"github.com/pip-analysis/pip/internal/workload"
)

// BenchmarkModuleHash hashes every module of the serve-solve pool (184
// modules, about 110k MIR instructions); one op is one pass over the pool.
func BenchmarkModuleHash(b *testing.B) {
	files := workload.GenerateCorpus(workload.Options{Seed: 1, Scale: 0.05, SizeScale: 0.1, MaxInstrs: 4000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			ModuleHash(f.Module)
		}
	}
}
