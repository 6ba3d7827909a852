package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const solveSrc = `
static int x;
int *p = &x;
extern void take(int**);
void f() { take(&p); }
`

// postJSON sends body to path and decodes the JSON response into out.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// scrapeMetrics reads /metrics once and returns a lookup of its samples by
// series (name plus any label set, as printed). Looking up a series the
// scrape lacks fails the test.
func scrapeMetrics(t *testing.T, ts *httptest.Server) func(series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return func(series string) float64 {
		t.Helper()
		v, ok := samples[series]
		if !ok {
			t.Fatalf("metrics lack %s:\n%s", series, body)
		}
		return v
	}
}

func TestSolveEndpoint(t *testing.T) {
	var logs bytes.Buffer
	s := New(Options{LogWriter: &logs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Query mode: named points-to sets.
	var resp solveResponse
	code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p", "nosuch"},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("solve returned %d", code)
	}
	if resp.Degraded || resp.CacheHit {
		t.Fatalf("first solve: degraded=%v cacheHit=%v", resp.Degraded, resp.CacheHit)
	}
	pe := resp.PointsTo["p"]
	if !pe.External {
		t.Fatal("@p escaped through take() but external not reported")
	}
	found := false
	for _, tgt := range pe.Targets {
		if tgt == "@x" {
			found = true
		}
	}
	if !found {
		t.Fatalf("PointsTo(p) lacks @x: %+v", pe)
	}
	if resp.PointsTo["nosuch"].Error == "" {
		t.Fatal("unknown query name did not report a per-query error")
	}
	if len(resp.Escaped) == 0 {
		t.Fatal("escaped set empty")
	}
	if resp.Config == "" || resp.Dump != "" {
		t.Fatalf("unexpected response shape: %+v", resp)
	}

	// Second identical request is served from the cache.
	var resp2 solveResponse
	postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &resp2)
	if !resp2.CacheHit {
		t.Fatal("identical module+config not served from cache")
	}
	if resp2.DurationNS != 0 {
		t.Fatalf("cache hit reports solve duration %d", resp2.DurationNS)
	}

	// Dump mode (no queries) returns the full report.
	var dumpResp solveResponse
	postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{C: solveSrc},
	}, &dumpResp)
	if !strings.Contains(dumpResp.Dump, "@p ->") {
		t.Fatalf("dump missing points-to lines:\n%s", dumpResp.Dump)
	}

	// MIR input works too.
	var mirResp solveResponse
	code = postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{MIR: "module \"m\"\nglobal @g : ptr = null export\n"},
		Queries:       []string{"g"},
	}, &mirResp)
	if code != http.StatusOK {
		t.Fatalf("MIR solve returned %d", code)
	}
	if !mirResp.PointsTo["g"].External {
		t.Fatal("exported global must point to external memory")
	}

	// Structured request logs were written.
	if !strings.Contains(logs.String(), `"path":"/v1/solve"`) {
		t.Fatalf("no structured request log:\n%s", logs.String())
	}
}

func TestAliasEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp aliasResponse
	code := postJSON(t, ts, "/v1/alias", aliasRequest{
		moduleRequest: moduleRequest{Name: "a.c", C: `
static int x; static int y;
int *p = &x; int *q = &y;
`},
		Pairs: [][2]string{{"p", "p"}, {"p", "q"}, {"p", "nosuch"}},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("alias returned %d", code)
	}
	if got := resp.Answers[0].Result; got != "MustAlias" {
		t.Fatalf("p vs p = %s", got)
	}
	if got := resp.Answers[1].Result; got != "NoAlias" {
		t.Fatalf("distinct globals p vs q = %s", got)
	}
	if resp.Answers[2].Error == "" {
		t.Fatal("unknown name did not report a per-pair error")
	}

	// Missing pairs is a client error.
	if code := postJSON(t, ts, "/v1/alias", aliasRequest{
		moduleRequest: moduleRequest{C: "int x;"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty pairs returned %d", code)
	}
}

// TestBudgetDegradation: a request whose budget cannot complete the solve
// gets the sound Ω-degraded answer with Degraded set — HTTP 200, never an
// error — and degraded solutions are not cached.
func TestBudgetDegradation(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, via := range []string{"body", "query"} {
		req := solveRequest{
			moduleRequest: moduleRequest{Name: "b.c", C: solveSrc},
			Queries:       []string{"p"},
		}
		path := "/v1/solve"
		if via == "body" {
			req.Budget = "-1f"
		} else {
			path += "?budget=-1f"
		}
		var resp solveResponse
		code := postJSON(t, ts, path, req, &resp)
		if code != http.StatusOK {
			t.Fatalf("budgeted solve via %s returned %d", via, code)
		}
		if !resp.Degraded {
			t.Fatalf("no-firings budget via %s did not degrade", via)
		}
		if resp.CacheHit {
			t.Fatalf("degraded solve via %s served from cache", via)
		}
		if !resp.PointsTo["p"].External {
			t.Fatal("degraded answer lost the external marker")
		}
	}

	// An already-expired request deadline (?timeout=) degrades too: the
	// deadline maps onto the budget via BudgetFromContext.
	var resp solveResponse
	code := postJSON(t, ts, "/v1/solve?timeout=1ns", solveRequest{
		moduleRequest: moduleRequest{Name: "b.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("timeout solve returned %d", code)
	}
	if !resp.Degraded {
		t.Fatal("expired request deadline did not degrade the solve")
	}
	if st := s.eng.Stats(); st.Degraded < 3 {
		t.Fatalf("engine stats lost degradations: %+v", st)
	}
}

// TestMalformedRequests: every client fault maps to 400 — never 500 — with
// a JSON error body.
func TestMalformedRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"invalid JSON", `{"c": `},
		{"unknown field", `{"sources": "int x;"}`},
		{"no module", `{"name": "empty.c"}`},
		{"both module kinds", `{"c": "int x;", "mir": "module \"m\"\n"}`},
		{"C syntax error", `{"c": "int f( {"}`},
		{"bad MIR", `{"mir": "not a module"}`},
		{"bad config", `{"c": "int x;", "config": "BOGUS"}`},
		{"bad budget", `{"c": "int x;", "budget": "10parsecs"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: non-JSON error response: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (error %q)", tc.name, resp.StatusCode, e.Error)
		}
		if e.Error == "" {
			t.Fatalf("%s: empty error message", tc.name)
		}
	}
	// Bad query parameters too.
	for _, path := range []string{"/v1/solve?budget=xf", "/v1/solve?config=NOPE", "/v1/solve?timeout=-1s"} {
		if code := postJSON(t, ts, path, solveRequest{moduleRequest: moduleRequest{C: "int x;"}}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, code)
		}
	}
	if st := s.eng.Stats(); st.Jobs != 0 {
		t.Fatalf("malformed requests reached the engine: %+v", st)
	}
	m := scrapeMetrics(t, ts)
	if m("pip_requests_bad_total") == 0 || m("pip_requests_failed_total") != 0 {
		t.Fatalf("bad requests not counted: bad %v, failed %v",
			m("pip_requests_bad_total"), m("pip_requests_failed_total"))
	}
}

// TestAdmissionControlOverflow fills the run and queue slots, then asserts
// the next request bounces with 429 while the queued ones complete once
// capacity frees up.
func TestAdmissionControlOverflow(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only run slot so admitted requests stay queued.
	s.runSlots <- struct{}{}

	// Fill the queue: MaxQueue+MaxConcurrent = 2 admission slots.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var resp solveResponse
			results <- postJSON(t, ts, "/v1/solve", solveRequest{
				moduleRequest: moduleRequest{C: solveSrc},
				Queries:       []string{"p"},
			}, &resp)
		}()
	}
	// Wait until both requests hold admission slots.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queueSlots) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued requests never took admission slots")
		}
		time.Sleep(time.Millisecond)
	}

	// The server is saturated: the next request must bounce immediately.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"c": "int x;"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Free the run slot: both queued requests complete successfully.
	<-s.runSlots
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("queued request %d finished with %d", i, code)
		}
	}
	m := scrapeMetrics(t, ts)
	if m("pip_requests_rejected_total") != 1 || m("pip_requests_accepted_total") != 2 {
		t.Fatalf("admission counters: rejected %v, accepted %v",
			m("pip_requests_rejected_total"), m("pip_requests_accepted_total"))
	}
}

// TestShutdownDrain: Shutdown refuses new work but blocks until every
// in-flight solve has written its response — no accepted request is
// dropped.
func TestShutdownDrain(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the run slot so the in-flight request stays parked past
	// admission when Shutdown begins.
	s.runSlots <- struct{}{}
	result := make(chan int, 1)
	go func() {
		var resp solveResponse
		result <- postJSON(t, ts, "/v1/solve", solveRequest{
			moduleRequest: moduleRequest{C: solveSrc},
			Queries:       []string{"p"},
		}, &resp)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queueSlots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Shutdown must wait for the in-flight request...
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a solve was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// ...refuse new work...
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{C: "int x;"},
	}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted work: %d", code)
	}
	var h healthzResponse
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz during drain: %d %+v", code, h)
	}

	// ...and finish once the solve completes.
	<-s.runSlots
	if code := <-result; code != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// A drain that cannot finish respects its context.
	s2 := New(Options{})
	s2.inFlight.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s2.Shutdown(ctx); err == nil {
		t.Fatal("stuck drain returned nil")
	}
	s2.inFlight.Done()
}

func TestHealthz(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var h healthzResponse
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
}

// TestConcurrentLoad is the acceptance scenario: ≥8 parallel clients with
// mixed cached/uncached/budgeted requests against a small cache cap. The
// server must answer every request, keep cache occupancy bounded, degrade
// budgeted solves soundly, and report /metrics consistent with the run.
func TestConcurrentLoad(t *testing.T) {
	const (
		cacheCap  = 4
		clients   = 8
		perClient = 12
	)
	s := New(Options{CacheEntries: cacheCap, MaxConcurrent: 4, MaxQueue: clients * perClient})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		mu                         sync.Mutex
		ok, degraded, hits, solved int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := solveRequest{Queries: []string{"p"}}
				path := "/v1/solve"
				switch i % 3 {
				case 0: // hot module: identical content, cacheable
					req.C = solveSrc
					req.Name = "hot.c"
				case 1: // cold module: distinct content per client/iteration
					req.C = fmt.Sprintf("static int x_%d_%d;\nint *p = &x_%d_%d;\n", c, i, c, i)
					req.Name = fmt.Sprintf("cold_%d_%d.c", c, i)
				case 2: // budgeted: degrades deterministically
					req.C = solveSrc
					req.Name = "hot.c"
					req.Budget = "-1f"
				}
				var resp solveResponse
				code := postJSON(t, ts, path, req, &resp)
				if code != http.StatusOK {
					t.Errorf("client %d req %d: status %d", c, i, code)
					continue
				}
				if resp.PointsTo["p"].Error != "" {
					t.Errorf("client %d req %d: query error %q", c, i, resp.PointsTo["p"].Error)
				}
				mu.Lock()
				ok++
				if resp.Degraded {
					degraded++
				}
				if resp.CacheHit {
					hits++
				} else {
					solved++
				}
				if i%3 == 2 && !resp.Degraded {
					t.Errorf("client %d req %d: budgeted solve did not degrade", c, i)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	total := clients * perClient
	if ok != total {
		t.Fatalf("%d/%d requests succeeded", ok, total)
	}
	if hits == 0 {
		t.Fatal("hot module never hit the cache")
	}

	m := scrapeMetrics(t, ts)
	// Engine counters line up with what the clients observed.
	if got := m("pip_engine_jobs_total"); got != float64(total) {
		t.Fatalf("engine jobs %v, want %d", got, total)
	}
	if got := m("pip_cache_hits_total"); got != float64(hits) {
		t.Fatalf("engine cache hits %v, clients saw %d", got, hits)
	}
	if st := s.eng.Stats(); st.Degraded != degraded || m("pip_solves_degraded_total") != float64(degraded) {
		t.Fatalf("degradations: engine %d server %v clients %d",
			st.Degraded, m("pip_solves_degraded_total"), degraded)
	}
	if m("pip_engine_failures_total") != 0 || m("pip_requests_failed_total") != 0 {
		t.Fatalf("failures: engine %v, server %v",
			m("pip_engine_failures_total"), m("pip_requests_failed_total"))
	}
	// The cache stayed bounded despite ~cold-module churn, and the churn
	// beyond the cap shows up as evictions.
	if m("pip_cache_entries") > cacheCap || m("pip_cache_capacity") != cacheCap {
		t.Fatalf("cache occupancy %v exceeds cap %d", m("pip_cache_entries"), cacheCap)
	}
	if m("pip_cache_evictions_total") == 0 {
		t.Fatal("cold churn produced no evictions")
	}
	if m("pip_requests_accepted_total") != float64(total) || m("pip_requests_rejected_total") != 0 {
		t.Fatalf("admission counters: accepted %v, rejected %v",
			m("pip_requests_accepted_total"), m("pip_requests_rejected_total"))
	}
	if m("pip_running_solves") != 0 || m("pip_queued_requests") != 0 {
		t.Fatalf("idle server reports in-flight work: running %v, queued %v",
			m("pip_running_solves"), m("pip_queued_requests"))
	}
	if m("pip_engine_busy_seconds_total") <= 0 || m("pip_engine_cpu_seconds_total") <= 0 {
		t.Fatalf("engine timing counters empty: busy=%v cpu=%v",
			m("pip_engine_busy_seconds_total"), m("pip_engine_cpu_seconds_total"))
	}
}
