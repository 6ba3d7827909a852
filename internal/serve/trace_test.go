package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pip-analysis/pip/internal/obs"
)

// postTraced posts a solve with an explicit trace ID and returns the
// echoed X-Trace-Id header and status.
func postTraced(t *testing.T, ts *httptest.Server, traceID string, body any) (string, int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("X-Trace-Id"), resp.StatusCode
}

// TestServerTraceEndpoint: a request's trace is queryable back out as
// valid Chrome trace_event JSON carrying the server's request spans.
func TestServerTraceEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	echoed, code := postTraced(t, ts, "trace-abc", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	})
	if code != http.StatusOK {
		t.Fatalf("solve returned %d", code)
	}
	if echoed != "trace-abc" {
		t.Fatalf("X-Trace-Id echoed as %q, want trace-abc", echoed)
	}

	resp, err := http.Get(ts.URL + "/debug/trace?id=trace-abc")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace returned %d: %s", resp.StatusCode, data)
	}
	if err := obs.CheckChrome(data); err != nil {
		t.Fatalf("trace fails validation: %v\n%s", err, data)
	}
	for _, want := range []string{"/v1/solve", "queue-wait", "solve"} {
		if !bytes.Contains(data, []byte(`"`+want+`"`)) {
			t.Fatalf("trace missing %q span:\n%s", want, data)
		}
	}

	// Unknown and malformed IDs answer 404/400, not 500.
	if code := getJSON(t, ts, "/debug/trace?id=nonexistent", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace ID returned %d, want 404", code)
	}
	if code := getJSON(t, ts, "/debug/trace", nil); code != http.StatusBadRequest {
		t.Fatalf("missing trace ID returned %d, want 400", code)
	}
}

// TestServerMintsTraceID: with no caller-supplied X-Trace-Id, the server
// mints one and the response header is queryable.
func TestServerMintsTraceID(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	minted, code := postTraced(t, ts, "", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	})
	if code != http.StatusOK {
		t.Fatalf("solve returned %d", code)
	}
	if minted == "" {
		t.Fatal("no X-Trace-Id minted")
	}
	if code := getJSON(t, ts, "/debug/trace?id="+minted, nil); code != http.StatusOK {
		t.Fatalf("minted trace ID not queryable: %d", code)
	}
}

// TestClusterTraceRoundTrip is the tentpole acceptance path at the
// package level: one request through a router+backend cluster under one
// trace ID; the router's /debug/trace answers a single validated Chrome
// trace with both processes' spans merged under that ID.
func TestClusterTraceRoundTrip(t *testing.T) {
	_, ts, _, _ := newCluster(t, 2, RouterOptions{})

	const traceID = "cluster-trace-1"
	echoed, code := postTraced(t, ts, traceID, solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	})
	if code != http.StatusOK {
		t.Fatalf("solve through router returned %d", code)
	}
	if echoed != traceID {
		t.Fatalf("router echoed X-Trace-Id %q, want %q", echoed, traceID)
	}

	resp, err := http.Get(ts.URL + "/debug/trace?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /debug/trace returned %d: %s", resp.StatusCode, data)
	}
	if err := obs.CheckChrome(data); err != nil {
		t.Fatalf("merged cluster trace fails validation: %v\n%s", err, data)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.Metadata["trace_id"].(string); got != traceID {
		t.Fatalf("merged trace_id = %q, want %q", got, traceID)
	}
	procs := map[string]int{}
	spansByPID := map[int][]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			procs[name] = ev.PID
		}
		if ev.Phase == "X" {
			spansByPID[ev.PID] = append(spansByPID[ev.PID], ev.Name)
		}
	}
	routerPID, ok := procs["router"]
	if !ok {
		t.Fatalf("merged trace has no router process (procs %v)", procs)
	}
	backendPID := 0
	for name, pid := range procs {
		if strings.HasPrefix(name, "backend-") {
			backendPID = pid
		}
	}
	if backendPID == 0 {
		t.Fatalf("merged trace has no backend process (procs %v)", procs)
	}
	// Router side: the forward span. Backend side: the solve span.
	if !contains(spansByPID[routerPID], "forward") {
		t.Fatalf("router process carries no forward span: %v", spansByPID[routerPID])
	}
	if !contains(spansByPID[backendPID], "solve") {
		t.Fatalf("backend process carries no solve span: %v", spansByPID[backendPID])
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestTraceIndexEviction pins the FIFO bound: the index never holds more
// than its capacity of distinct trace IDs, and evicted IDs answer nil.
func TestTraceIndexEviction(t *testing.T) {
	ti := newTraceIndex(3, 16)
	for i := 0; i < 5; i++ {
		ti.obtain(fmt.Sprintf("t%d", i), "test")
	}
	resident, evicted := ti.stats()
	if resident != 3 || evicted != 2 {
		t.Fatalf("stats = (%d resident, %d evicted), want (3, 2)", resident, evicted)
	}
	if ti.get("t0") != nil || ti.get("t1") != nil {
		t.Fatal("evicted trace IDs still resolve")
	}
	if ti.get("t4") == nil {
		t.Fatal("recent trace ID evicted")
	}
	// obtain is idempotent per ID: re-asking returns the same recorder.
	a := ti.obtain("t4", "test")
	b := ti.obtain("t4", "test")
	if a != b {
		t.Fatal("obtain returned distinct recorders for one trace ID")
	}
}

// TestDegradedSolvesOpenBreaker: Ω-degraded answers through the
// server's full middleware stack are bad outcomes to the breaker — a
// window of them opens it although every one was a 200 — and the
// solve.degraded dump names the request that degraded.
func TestDegradedSolvesOpenBreaker(t *testing.T) {
	s := New(Options{Breaker: fastBreaker()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A negative firing cap permits no firings: every solve degrades.
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc, Budget: "-1f"}}
	for i := 0; i < 4; i++ {
		if _, code := postTraced(t, ts, fmt.Sprintf("degraded-%d", i), body); code != http.StatusOK {
			t.Fatalf("degraded solve %d: got %d, want 200", i, code)
		}
	}
	if got := s.degraded.Load(); got != 4 {
		t.Fatalf("degraded solves = %d, want 4", got)
	}
	if st, _ := s.breaker.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %v after 4 degraded solves, want open", st)
	}
	if _, code := postTraced(t, ts, "", body); code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker answered %d, want 503", code)
	}

	var fr flightrecResponse
	getJSON(t, ts, "/debug/flightrec", &fr)
	var reasons []string
	for _, d := range fr.Dumps {
		reasons = append(reasons, d.Reason)
		if d.Reason != flightTriggerDegraded {
			continue
		}
		for _, r := range d.Records {
			if r.TraceID == "degraded-0" && r.Degraded && r.Status == http.StatusOK {
				return
			}
		}
	}
	t.Fatalf("no solve.degraded dump names request degraded-0 (dumps: %v)", reasons)
}

// TestDegradedSolveTriggersFlightDump: an Ω-degraded response fires the
// solve.degraded trigger, and the dump's ring carries the request that
// degraded, identified by its trace ID.
func TestDegradedSolveTriggersFlightDump(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A one-firing budget degrades any real module soundly.
	b, _ := json.Marshal(solveRequest{moduleRequest: moduleRequest{
		Name: "t.c", C: solveSrc, Budget: "1f",
	}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "degraded-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !out.Degraded {
		t.Skip("1-firing budget did not degrade this module; nothing to assert")
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		var fr flightrecResponse
		getJSON(t, ts, "/debug/flightrec", &fr)
		found := false
		for _, d := range fr.Dumps {
			if d.Reason != flightTriggerDegraded {
				continue
			}
			for _, r := range d.Records {
				if r.TraceID == "degraded-trace" && r.Degraded {
					found = true
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no solve.degraded dump naming the degraded request")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
