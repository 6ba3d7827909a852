package ir_test

import (
	"math"
	"strconv"
	"testing"

	"github.com/pip-analysis/pip/internal/cfront"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/testsrc"
	"github.com/pip-analysis/pip/internal/workload"
)

// checkPrint asserts that Print, and with it the store key, gives the
// reference printer's text byte for byte.
func checkPrint(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	if got, want := ir.Print(m), ir.PrintReference(m); got != want {
		t.Errorf("%s: Print differs from the reference printer:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestPrintMatchesReference checks the printer against the reference
// over the serve-solve pool, the store-key corpus, and every C program
// the cfront tests and the examples compile. FuzzParse checks every
// input it accepts the same way.
func TestPrintMatchesReference(t *testing.T) {
	for _, opts := range []workload.Options{servePool, storeKeyCorpus} {
		for _, f := range workload.GenerateCorpus(opts) {
			checkPrint(t, f.Suite+"/"+f.Name, f.Module)
		}
	}
	compiled := 0
	for _, src := range testsrc.Literals(t, "../cfront/*_test.go", "../../examples/*/main.go") {
		if m, err := cfront.Compile("t.c", src); err == nil {
			checkPrint(t, src, m)
			compiled++
		}
	}
	if compiled < 50 {
		t.Fatalf("only %d C sources compiled; the literal scan lost the test sources", compiled)
	}
}

// TestPrintConstantsMatchReference covers constant spellings the corpora
// rarely produce: extreme integers, and floats fmt's %g spells with an
// exponent, a sign, or as a word.
func TestPrintConstantsMatchReference(t *testing.T) {
	m := ir.NewModule("consts")
	var vals []ir.Value
	for _, v := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		vals = append(vals, ir.Int(v, ir.I64))
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.1, 1e6, 1e21, 1e-7, 1e300, -2.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		vals = append(vals, &ir.ConstFloat{Val: v, T: ir.F64}, &ir.ConstFloat{Val: v, T: ir.F32})
	}
	for i, v := range vals {
		g := &ir.Global{GName: "g" + strconv.Itoa(i), Elem: v.Type(), Init: v, Linkage: ir.Internal}
		if err := m.AddGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	arr := &ir.ArrayType{Elem: ir.I64, Len: len(vals)}
	agg := &ir.ConstAggregate{T: arr, Elems: vals}
	if err := m.AddGlobal(&ir.Global{GName: "all", Elem: arr, Init: agg, Linkage: ir.Exported}); err != nil {
		t.Fatal(err)
	}
	checkPrint(t, "constants", m)
}

// TestIntegralFloatConstantsRoundTrip pins that Print's spelling of an
// integral float constant, which has no point and no exponent, parses
// back to the same constant, negative zero included.
func TestIntegralFloatConstantsRoundTrip(t *testing.T) {
	src := "module \"x\"\nglobal @a : f64 = 2:f64 internal\nglobal @b : f32 = -0:f32 internal\nglobal @c : f64 = -123456:f64 internal\n"
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.Print(m); got != src {
		t.Fatalf("round trip changed the text:\n%s\nwant:\n%s", got, src)
	}
	if c, ok := m.Global("b").Init.(*ir.ConstFloat); !ok || !math.Signbit(c.Val) || c.Val != 0 {
		t.Fatalf("-0:f32 parsed as %#v, want a negative-zero float", m.Global("b").Init)
	}
}
