package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/obs"
)

// resolveSrcEdit appends one function to solveSrc — a monotone edit from
// the constraint set's point of view.
const resolveSrcEdit = solveSrc + `
void g(int *q) { int *r = q; }
`

func TestResolveEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First request: no handle, a session is created (generation 0).
	var r0 resolveResponse
	code := postJSON(t, ts, "/v1/resolve?config=IP%2BWL(FIFO)", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &r0)
	if code != http.StatusOK {
		t.Fatalf("resolve returned %d", code)
	}
	if r0.Handle == "" || r0.Generation != 0 || r0.Incremental == nil {
		t.Fatalf("bad first resolve: %+v", r0)
	}
	if !r0.PointsTo["p"].External {
		t.Fatal("@p escapes through take() but external not reported")
	}

	// Identical resubmission: empty delta, solution reused.
	var r1 resolveResponse
	code = postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Handle:        r0.Handle,
	}, &r1)
	if code != http.StatusOK {
		t.Fatalf("resubmit returned %d", code)
	}
	if r1.Generation != 1 || r1.Incremental == nil || !r1.Incremental.ReusedSolution {
		t.Fatalf("identical resubmission should reuse: %+v", r1.Incremental)
	}

	// Edited resubmission: re-solved (resume or fallback), still answers.
	var r2 resolveResponse
	code = postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: resolveSrcEdit},
		Handle:        r0.Handle,
		Queries:       []string{"p", "g.q"},
	}, &r2)
	if code != http.StatusOK {
		t.Fatalf("edited resubmit returned %d", code)
	}
	if r2.Generation != 2 || r2.Incremental.ReusedSolution {
		t.Fatalf("edit should re-solve: gen=%d %+v", r2.Generation, r2.Incremental)
	}
	if !r2.PointsTo["g.q"].External {
		t.Fatal("exported g's parameter should point externally")
	}

	// Unknown handle: 404, lineage not silently restarted.
	code = postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Handle:        "nope",
	}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown handle returned %d, want 404", code)
	}

	// Config change mid-lineage: 400.
	code = postJSON(t, ts, "/v1/resolve?config=EP%2BNAIVE", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Handle:        r0.Handle,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("config change returned %d, want 400", code)
	}

	// The metrics endpoint reports the incremental outcome split.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`pip_incremental_requests_total{outcome="reused"} 1`,
		`pip_demand_requests_total`,
		`pip_incremental_reused_constraints`,
		`pip_sessions 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestResolveFallbackReasons walks a lineage through an initial solve, an
// appended function (resumed), the same source again (reused) and the
// function's deletion (a removal), and checks that
// pip_incremental_fallbacks_total counts each fallback under its reason
// with every label of the closed set exported, and that no resolve leaves
// an entry in the solution cache.
func TestResolveFallbackReasons(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	handle := ""
	for i, step := range []struct {
		src  string
		path string
	}{
		{solveSrc, "fallback"},
		{resolveSrcEdit, "resumed"},
		{resolveSrcEdit, "reused"},
		{solveSrc, "fallback"},
	} {
		var r resolveResponse
		if code := postJSON(t, ts, "/v1/resolve?config=IP%2BWL(FIFO)", resolveRequest{
			moduleRequest: moduleRequest{Name: "t.c", C: step.src},
			Handle:        handle,
		}, &r); code != http.StatusOK {
			t.Fatalf("resolve %d returned %d", i, code)
		}
		handle = r.Handle
		inc := r.Incremental
		path := "fallback"
		switch {
		case inc.Resumed:
			path = "resumed"
		case inc.ReusedSolution:
			path = "reused"
		}
		if path != step.path {
			t.Fatalf("resolve %d took %s (%+v), want %s", i, path, inc, step.path)
		}
	}

	metric := scrapeMetrics(t, ts)
	want := map[string]float64{"initial": 1, "removals": 1}
	for _, label := range incr.FallbackLabels {
		series := `pip_incremental_fallbacks_total{reason="` + label + `"}`
		if got := metric(series); got != want[label] {
			t.Errorf("%s = %v, want %v", series, got, want[label])
		}
	}
	if got := metric("pip_cache_entries"); got != 0 {
		t.Errorf("pip_cache_entries = %v after resolves only, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.CheckExposition(string(body)); err != nil {
		t.Fatal(err)
	}
}

func TestResolveSessionEviction(t *testing.T) {
	s := New(Options{MaxSessions: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	handles := make([]string, 3)
	for i := range handles {
		var r resolveResponse
		if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
			moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		}, &r); code != http.StatusOK {
			t.Fatalf("resolve %d returned %d", i, code)
		}
		handles[i] = r.Handle
	}
	// The store held at most 2; the oldest handle was evicted.
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Handle:        handles[0],
	}, nil); code != http.StatusNotFound {
		t.Fatalf("evicted handle returned %d, want 404", code)
	}
	if resident, evicted := s.sessions.stats(); resident != 2 || evicted != 1 {
		t.Fatalf("store stats resident=%d evicted=%d, want 2/1", resident, evicted)
	}
}

func TestDemandQueryParam(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp solveResponse
	code := postJSON(t, ts, "/v1/solve?ptr=p", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("demand solve returned %d", code)
	}
	if resp.Demand == nil {
		t.Fatal("demand solve should report exploration stats")
	}
	if resp.Demand.ExploredVars == 0 || resp.Demand.ExploredVars > resp.Demand.TotalVars {
		t.Fatalf("implausible demand stats: %+v", resp.Demand)
	}
	if !resp.PointsTo["p"].External {
		t.Fatal("demand answer for p should report external")
	}

	// Demand mode on alias queries: answers stay sound, stats reported.
	var ar aliasResponse
	code = postJSON(t, ts, "/v1/alias?ptr=p", aliasRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Pairs:         [][2]string{{"p", "p"}},
	}, &ar)
	if code != http.StatusOK {
		t.Fatalf("demand alias returned %d", code)
	}
	if ar.Demand == nil {
		t.Fatal("demand alias should report exploration stats")
	}
	if ar.Answers[0].Result == "" {
		t.Fatalf("alias answer missing: %+v", ar.Answers[0])
	}

	// Bad root name: client error.
	code = postJSON(t, ts, "/v1/solve?ptr=nosuch", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad demand root returned %d, want 400", code)
	}

	// Exhaustive solves are unaffected and report no demand stats.
	var full solveResponse
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &full); code != http.StatusOK || full.Demand != nil {
		t.Fatalf("exhaustive solve: code=%d demand=%+v", code, full.Demand)
	}
}
