package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/obs"
)

// TestMetricsPrometheusExposition: the default /metrics body is valid
// Prometheus text exposition format with populated solve-latency buckets
// after a solve.
func TestMetricsPrometheusExposition(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "m.c", C: solveSrc},
		Queries:       []string{"p"},
	}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"pip_solve_latency_seconds_count 1",
		"pip_queue_wait_seconds_count 1",
		"pip_requests_accepted_total 1",
		"pip_engine_jobs_total 1",
		`pip_rule_firings_total{rule="trans"}`,
		`pip_engine_phase_seconds_total{phase="propagate"}`,
		"pip_engine_busy_seconds_total",
		"pip_engine_cpu_seconds_total",
		"pip_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// At least one finite latency bucket must be populated (the whole
	// request took well under the top bucket's 30s).
	if !strings.Contains(text, `pip_solve_latency_seconds_bucket{le="30"} 1`) {
		t.Fatalf("solve latency histogram not populated:\n%s", text)
	}
}

// TestRequestIDAcceptedAndGenerated: the server echoes a sane
// caller-supplied X-Request-Id, generates one otherwise, and threads the
// ID through request logs.
func TestRequestIDAcceptedAndGenerated(t *testing.T) {
	var logs strings.Builder
	s := New(Options{LogWriter: &logs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"c": "int x;", "queries": ["x"]}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "caller-id-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-id-123" {
		t.Fatalf("caller ID not echoed: %q", got)
	}
	if !strings.Contains(logs.String(), `"request_id":"caller-id-123"`) {
		t.Fatalf("request log missing the ID:\n%s", logs.String())
	}

	// No header → a generated 16-hex-char ID.
	resp2, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated ID malformed: %q", got)
	}

	// A hostile ID (oversized; the Go client already refuses to send
	// control characters) is replaced, not echoed.
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/solve", strings.NewReader(body))
	req3.Header.Set("X-Request-Id", strings.Repeat("x", 200))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("oversized ID not replaced with a generated one: %q", got)
	}
}

// TestPprofGatedByOption: /debug/pprof exists only when enabled.
func TestPprofGatedByOption(t *testing.T) {
	off := httptest.NewServer(New(Options{}).Handler())
	defer off.Close()
	if code := getJSON(t, off, "/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof reachable while disabled: %d", code)
	}

	on := httptest.NewServer(New(Options{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof index broken: %d\n%s", resp.StatusCode, body)
	}
}

// TestSolveTraceAttachedToRequestID: with Options.Trace set, the solve's
// spans land on a lane named after the request's ID.
func TestSolveTraceAttachedToRequestID(t *testing.T) {
	tr := pip.NewTrace("serve-test", 1<<12)
	s := New(Options{Trace: tr})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve",
		strings.NewReader(`{"c": "int x; int *p = &x;", "queries": ["p"]}`))
	req.Header.Set("X-Request-Id", "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	tree := tr.Tree()
	if !strings.Contains(tree, "req-trace-me:") {
		t.Fatalf("no request lane in trace:\n%s", tree)
	}
	for _, want := range []string{"solve", "propagate"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("request lane missing %q spans:\n%s", want, tree)
		}
	}
}
