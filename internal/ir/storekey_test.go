package ir_test

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// storeKeyCorpus is the corpus whose module hashes are pinned in
// testdata/storekeys.golden (the bench-snapshot corpus shape).
var storeKeyCorpus = workload.Options{Seed: 1, Scale: 0.02, SizeScale: 0.1, MaxInstrs: 4000}

// TestStoreKeyGolden pins engine.ModuleHash byte for byte. The hash is the
// persistent store's key, so a change to the printer (or to how the hash
// consumes it) that alters a digest silently turns every stored solution
// into a miss after a restart. The golden digests cover every FuzzParse
// seed that parses and the storeKeyCorpus modules, hashed both as
// generated and after a print/parse round trip (the service hashes
// parsed modules). The test also checks that Print and PrintTo agree.
func TestStoreKeyGolden(t *testing.T) {
	golden := readGolden(t)
	mods := map[string]*ir.Module{}
	for i, src := range ir.ParseSeeds {
		if m, err := ir.Parse(src); err == nil {
			mods[fmt.Sprintf("seed/%02d", i)] = m
		}
	}
	for _, f := range workload.GenerateCorpus(storeKeyCorpus) {
		mods["corpus/"+f.Suite+"/"+f.Name] = f.Module
	}
	for name, want := range golden {
		m := mods[name]
		if m == nil {
			t.Errorf("%s: no module with this name", name)
			continue
		}
		if got := engine.ModuleHash(m); got != want {
			t.Errorf("%s: ModuleHash = %s, golden %s", name, got, want)
		}
		text := ir.Print(m)
		var b strings.Builder
		ir.PrintTo(&b, m)
		if b.String() != text {
			t.Errorf("%s: PrintTo wrote different text from Print", name)
		}
		reparsed, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: printed module does not reparse: %v", name, err)
		}
		if got := engine.ModuleHash(reparsed); got != want {
			t.Errorf("%s: ModuleHash after round trip = %s, golden %s", name, got, want)
		}
	}
	if len(golden) != len(mods) {
		t.Errorf("golden file has %d digests, the seeds and corpus give %d modules", len(golden), len(mods))
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/storekeys.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}
