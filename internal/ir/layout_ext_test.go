package ir_test

import (
	"testing"

	"github.com/pip-analysis/pip/internal/cfront"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/testsrc"
	"github.com/pip-analysis/pip/internal/workload"
)

// checkLayout asserts the storage layout of m as built, and of m printed
// and parsed back, then the mutation isolation of both.
func checkLayout(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	parsed, err := ir.Parse(ir.Print(m))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range []struct {
		how string
		m   *ir.Module
	}{{"built", m}, {"parsed", parsed}} {
		if err := ir.LayoutError(c.m); err != nil {
			t.Errorf("%s (%s): %v", name, c.how, err)
		}
		if err := ir.MutationError(c.m); err != nil {
			t.Errorf("%s (%s): %v", name, c.how, err)
		}
	}
}

// TestLayoutMatchesChunkedStorage checks that Builder and Parse give every
// module of the serve-solve pool and every C program the cfront tests and
// the examples compile capacity-limited lists, and that appending to one
// list, ReplaceUses and RemoveInstr leave every other instruction as it
// was.
func TestLayoutMatchesChunkedStorage(t *testing.T) {
	for _, f := range workload.GenerateCorpus(servePool) {
		checkLayout(t, f.Suite+"/"+f.Name, f.Module)
	}
	compiled := 0
	for _, src := range testsrc.Literals(t, "../cfront/*_test.go", "../../examples/*/main.go") {
		if m, err := cfront.Compile("t.c", src); err == nil {
			checkLayout(t, src, m)
			compiled++
		}
	}
	if compiled < 50 {
		t.Fatalf("only %d C sources compiled; the literal scan lost the test sources", compiled)
	}
}
