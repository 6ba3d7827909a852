package main

import (
	"testing"

	"github.com/pip-analysis/pip"
)

// Every generated file and every edited version must compile through
// cfront and analyze without degrading, and every session must query
// names that exist.
func TestEditScriptsCompileAndAnalyze(t *testing.T) {
	cfg := pip.MustParseConfig(editConfig)
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 2; i++ {
			s := newEditScript(seed, i, editUnits, editSteps)
			if len(s.Versions) != editSteps+1 {
				t.Fatalf("%s: %d versions", s.Name, len(s.Versions))
			}
			for v, src := range s.Versions {
				m, err := pip.CompileC(s.Name, src)
				if err != nil {
					t.Fatalf("%s version %d (after %v): %v", s.Name, v, s.Edits[:v], err)
				}
				res, err := pip.Analyze(m, cfg)
				if err != nil {
					t.Fatalf("%s version %d: %v", s.Name, v, err)
				}
				if res.Degraded() {
					t.Fatalf("%s version %d: degraded", s.Name, v)
				}
				for _, q := range cQueries {
					if _, _, err := res.PointsTo(q); err != nil {
						t.Fatalf("%s version %d: query %s: %v", s.Name, v, q, err)
					}
				}
			}
		}
	}
}

// The same seed must yield byte-identical sources; another seed must not.
func TestEditScriptsDeterministic(t *testing.T) {
	a := newEditScript(7, 1, editUnits, editSteps)
	b := newEditScript(7, 1, editUnits, editSteps)
	for v := range a.Versions {
		if a.Versions[v] != b.Versions[v] {
			t.Fatalf("version %d differs between two generations of one seed", v)
		}
	}
	if c := newEditScript(8, 1, editUnits, editSteps); c.Versions[0] == a.Versions[0] {
		t.Fatal("seeds 7 and 8 gave the same base file")
	}
	if len(a.Versions[0]) < 10000 {
		t.Fatalf("base file is %d bytes, want tens of KB", len(a.Versions[0]))
	}
}
