package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// rawTestMIR is a small module printed as MIR, with the names its
// requests query.
func rawTestMIR(t testing.TB) string {
	t.Helper()
	m, err := pip.CompileC("raw.c", solveSrc)
	if err != nil {
		t.Fatal(err)
	}
	return pip.PrintIR(m)
}

// postRaw posts body to path and returns the status and response bytes.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRawPathAnswersByteIdentical: for /v1/solve and /v1/alias, a
// request answered from the raw-text index gets the same bytes as a
// canonically equal request that had to parse, and the metrics count the
// raw hit as a cache hit and an engine job like any memory hit.
func TestRawPathAnswersByteIdentical(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mir := rawTestMIR(t)
	variant := "; a comment the parser skips\n" + mir
	for _, tc := range []struct {
		path string
		body func(mir string) any
	}{
		{"/v1/solve", func(mir string) any {
			return solveRequest{moduleRequest: moduleRequest{Name: "raw", MIR: mir}, Queries: []string{"p", "f"}}
		}},
		{"/v1/alias", func(mir string) any {
			// Under its own configuration, so the solves do not warm it.
			return aliasRequest{moduleRequest: moduleRequest{Name: "raw", MIR: mir, Config: "IP+WL(FIFO)"}, Pairs: [][2]string{{"p", "p"}, {"p", "x"}}}
		}},
	} {
		before := s.eng.Stats()
		code, first := postRaw(t, ts, tc.path, tc.body(mir))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, code, first)
		}
		_, parsed := postRaw(t, ts, tc.path, tc.body(variant)) // parse-path memory hit
		_, raw := postRaw(t, ts, tc.path, tc.body(mir))        // raw hit
		st := s.eng.Stats()
		if hits, rawHits := st.CacheHits-before.CacheHits, st.RawHits-before.RawHits; hits != 2 || rawHits != 1 {
			t.Fatalf("%s: %d cache hits, %d raw, want 2 and 1", tc.path, hits, rawHits)
		}
		if !bytes.Equal(parsed, raw) {
			t.Fatalf("%s: raw-path answer differs from the parse path:\n%s\n%s", tc.path, parsed, raw)
		}
		if !bytes.Contains(raw, []byte(`"cache_hit":true`)) {
			t.Fatalf("%s: raw hit not reported as a cache hit: %s", tc.path, raw)
		}
	}
	m := scrapeMetrics(t, ts)
	if m("pip_cache_raw_hits_total") != 2 || m("pip_cache_hits_total") != 4 || m("pip_engine_jobs_total") != 6 {
		t.Fatalf("raw %v hits %v jobs %v, want 2/4/6",
			m("pip_cache_raw_hits_total"), m("pip_cache_hits_total"), m("pip_engine_jobs_total"))
	}
	if m("pip_solve_latency_seconds_count") != 6 {
		t.Fatalf("solve latency observed %v times, want 6", m("pip_solve_latency_seconds_count"))
	}
}

// TestRawPathBypassed: C requests, demand (?ptr=) requests and resolves
// never take the raw path, and a body that failed to parse gets its 400
// again on a repeat.
func TestRawPathBypassed(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mir := rawTestMIR(t)
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts, "/v1/solve", solveRequest{moduleRequest: moduleRequest{C: solveSrc}}, nil); code != http.StatusOK {
			t.Fatalf("C solve: %d", code)
		}
		if code := postJSON(t, ts, "/v1/solve?ptr=p", solveRequest{moduleRequest: moduleRequest{MIR: mir}}, nil); code != http.StatusOK {
			t.Fatalf("demand solve: %d", code)
		}
		if code := postJSON(t, ts, "/v1/resolve", resolveRequest{moduleRequest: moduleRequest{MIR: mir}}, nil); code != http.StatusOK {
			t.Fatalf("resolve: %d", code)
		}
		var e errorResponse
		if code := postJSON(t, ts, "/v1/solve", solveRequest{moduleRequest: moduleRequest{MIR: "define ptr @f( {"}}, &e); code != http.StatusBadRequest || !strings.HasPrefix(e.Error, "bad request: module: ") {
			t.Fatalf("bad MIR, attempt %d: %d %q", i, code, e.Error)
		}
	}
	if st := s.eng.Stats(); st.RawHits != 0 {
		t.Fatalf("%d raw hits from requests that must bypass the index", st.RawHits)
	}
	m := scrapeMetrics(t, ts)
	if m("pip_requests_bad_total") != 2 {
		t.Fatalf("bad requests %v, want 2", m("pip_requests_bad_total"))
	}
}

// TestRawPathSpanAttribute: the request's solve span says which path
// answered it.
func TestRawPathSpanAttribute(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(solveRequest{moduleRequest: moduleRequest{MIR: rawTestMIR(t)}, Queries: []string{"p"}})
	for i, want := range []string{`"raw":0`, `"raw":1`} {
		id := fmt.Sprintf("raw-span-%d", i)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(body))
		req.Header.Set(traceIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		tr := s.traces.get(id)
		if tr == nil {
			t.Fatalf("no trace for %s", id)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("request %d: solve span lacks %s:\n%s", i, want, buf.String())
		}
	}
}

// TestCountersSeeOnlyAnalysisRequests: a /healthz probe of a draining
// server and an unknown trace ID are not failed or bad requests.
func TestCountersSeeOnlyAnalysisRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := getJSON(t, ts, "/debug/trace?id=never-seen", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", code)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", code)
	}
	m := scrapeMetrics(t, ts)
	if m("pip_requests_failed_total") != 0 || m("pip_requests_bad_total") != 0 {
		t.Fatalf("failed %v bad %v, want 0/0", m("pip_requests_failed_total"), m("pip_requests_bad_total"))
	}
}

// BenchmarkSolveHit is one /v1/solve request for a resident module,
// through the server's handler without a network: "raw" resends the same
// body, answered from the raw-text index; "parse" cycles through 64
// whitespace variants of it (leading blanks and tabs spelling the variant
// number), more than the raw keys one entry keeps, so every text comes
// back unindexed and is parsed and hashed before it hits the same entry.
func BenchmarkSolveHit(b *testing.B) {
	m := benchModule()
	mir := ir.Print(m)
	globals := []string{}
	for _, g := range m.Globals {
		globals = append(globals, g.GName)
	}
	sort.Strings(globals)
	if len(globals) > 4 {
		globals = globals[:4]
	}
	s := New(Options{})
	h := s.Handler()
	body := func(text string) []byte {
		bs, _ := json.Marshal(solveRequest{moduleRequest: moduleRequest{Name: "bench", MIR: text}, Queries: globals})
		return bs
	}
	serve := func(b *testing.B, bs []byte) {
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(bs))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit":true`)) {
			b.Fatalf("status %d: %.300s", rec.Code, rec.Body.Bytes())
		}
	}
	hot := body(mir)
	variants := make([][]byte, 64)
	for i := range variants {
		pad := strings.NewReplacer("0", " ", "1", "\t").Replace(fmt.Sprintf("%06b", i))
		variants[i] = body(pad + "\n" + mir)
	}
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(hot))
	h.ServeHTTP(httptest.NewRecorder(), req) // solve once
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, hot)
		}
		b.ReportMetric(float64(m.NumInstrs()), "instrs")
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, variants[i%len(variants)])
		}
		b.ReportMetric(float64(m.NumInstrs()), "instrs")
	})
}

// benchModule is a module of the size a serve-solve request carries:
// the median of a small generated corpus by instruction count.
func benchModule() *ir.Module {
	files := workload.GenerateCorpus(workload.Options{Seed: 1, Scale: 0.02, SizeScale: 0.1, MaxInstrs: 4000})
	sort.Slice(files, func(i, j int) bool { return files[i].Module.NumInstrs() < files[j].Module.NumInstrs() })
	return files[len(files)/2].Module
}
