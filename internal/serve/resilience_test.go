package serve

import (
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

	"github.com/pip-analysis/pip/internal/faults"
)

// armServeFaults arms a fault spec for one test and disarms on exit (the
// registry is process-global).
func armServeFaults(t *testing.T, spec string) {
	t.Helper()
	reg, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("bad fault spec %q: %v", spec, err)
	}
	faults.Arm(reg)
	t.Cleanup(faults.Disarm)
}

// fastBreaker is a breaker configuration small enough to trip and recover
// inside a test.
func fastBreaker() BreakerOptions {
	return BreakerOptions{Window: 8, MinSamples: 4, Threshold: 0.5, Cooldown: 50 * time.Millisecond, Probes: 2}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(fastBreaker())
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	// Healthy traffic keeps it closed.
	for i := 0; i < 10; i++ {
		if ok, _ := b.allow(); !ok {
			t.Fatal("closed breaker refused a request")
		}
		b.record(false)
	}
	// A burst of failures trips it at the threshold.
	for i := 0; i < 8; i++ {
		b.record(true)
	}
	if st, trips := b.snapshot(); st != breakerOpen || trips != 1 {
		t.Fatalf("breaker not open after failure burst: state=%v trips=%d", st, trips)
	}
	if ok, retryAfter := b.allow(); ok || retryAfter <= 0 {
		t.Fatalf("open breaker admitted a request (ok=%v retryAfter=%v)", ok, retryAfter)
	}
	// After the cooldown it goes half-open and admits exactly Probes probes.
	now = now.Add(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if ok, _ := b.allow(); !ok {
			t.Fatalf("half-open breaker refused probe %d", i)
		}
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("half-open breaker admitted more than Probes requests")
	}
	// One bad probe re-trips.
	b.record(true)
	if st, trips := b.snapshot(); st != breakerOpen || trips != 2 {
		t.Fatalf("bad probe did not re-trip: state=%v trips=%d", st, trips)
	}
	// Good probes close it again.
	now = now.Add(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if ok, _ := b.allow(); !ok {
			t.Fatalf("half-open breaker refused probe %d after re-trip", i)
		}
		b.record(false)
	}
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("breaker did not re-close after good probes: state=%v", st)
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("re-closed breaker refused a request")
	}
}

func TestBreakerOpensAndReclosesOverHTTP(t *testing.T) {
	// Every handler pass fails while the fault is armed, so the window
	// fills with 500s and the breaker opens; after disarm and cooldown the
	// probes succeed and it closes again.
	armServeFaults(t, "seed=7;serve.handler=error:1")
	s := New(Options{Breaker: fastBreaker()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}

	for i := 0; i < 4; i++ {
		if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusInternalServerError {
			t.Fatalf("request %d: got %d, want 500", i, code)
		}
	}
	if st, _ := s.breaker.snapshot(); st != breakerOpen {
		t.Fatalf("breaker not open after 4 consecutive 500s: %v", st)
	}
	// While open: immediate 503 with Retry-After, request never admitted.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker answered %d, want 503", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
	if s.breakerRejected.Load() == 0 {
		t.Fatal("shed request not counted in breakerRejected")
	}

	// Heal the server and wait out the cooldown: probes close the breaker.
	faults.Disarm()
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusOK {
			t.Fatalf("probe %d: got %d, want 200", i, code)
		}
	}
	if st, _ := s.breaker.snapshot(); st != breakerClosed {
		t.Fatalf("breaker did not re-close: %v", st)
	}
	if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusOK {
		t.Fatalf("post-recovery request failed: %d", code)
	}
}

func TestHandlerPanicRecoveredWithoutLeakingSlots(t *testing.T) {
	// Every request panics in the handler. With MaxConcurrent=2, more
	// panics than slots prove the admission defers release slots during
	// the unwind — otherwise the later requests would queue forever.
	armServeFaults(t, "seed=7;serve.handler=panic:1")
	s := New(Options{MaxConcurrent: 2, MaxQueue: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: got %d, want 500", i, code)
		}
	}
	if got := s.panics.Load(); got != 5 {
		t.Fatalf("expected 5 recovered panics, got %d", got)
	}
	faults.Disarm()
	if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusOK {
		t.Fatalf("server broken after recovered panics: %d", code)
	}
}

func TestAdmissionFaultRejectsBeforeAdmission(t *testing.T) {
	armServeFaults(t, "seed=7;serve.admission=error:1")
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission fault answered %d, want 503", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
	// The request was refused before admission: nothing to drain, nothing
	// accepted.
	if got := scrapeMetrics(t, ts)("pip_requests_accepted_total"); got != 0 {
		t.Fatalf("admission-faulted request was counted as accepted: %v", got)
	}
}

// TestDrainUnderFault is the satellite drain scenario: shutdown begins
// while the breaker is open and retried solves are still in flight. Every
// admitted request must still receive its response — the drain guarantee
// holds under chaos, with shed and refused requests answered 503 and
// never admitted in the first place.
func TestDrainUnderFault(t *testing.T) {
	// Slow every solve down (latency at core.solve) and make dispatch
	// flaky enough that the retry layer is exercised while the drain runs.
	armServeFaults(t, "seed=11;core.solve=latency:1:100ms;engine.dispatch=error:0.4")
	s := New(Options{
		MaxConcurrent: 3,
		MaxQueue:      16,
		Retries:       3,
		Breaker:       fastBreaker(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 10
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct modules defeat the cache and coalescing, so every
			// request is a real (slow, flaky) solve.
			src := fmt.Sprintf("static int x%d; int *p%d = &x%d;", i, i, i)
			body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: src}}
			codes[i] = postJSON(t, ts, "/v1/solve", body, nil)
		}(i)
	}

	// Give the burst time to be admitted and start solving, then open the
	// breaker by hand and begin the drain while solves (and their retries)
	// are still running.
	time.Sleep(30 * time.Millisecond)
	s.breaker.mu.Lock()
	s.breaker.trip()
	s.breaker.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	wg.Wait()

	// Every client got a definitive answer: solved (200), admission-refused
	// (429), or shed/refused with 503. Nothing hung, nothing was dropped
	// mid-solve. (engine.dispatch faults at 40% with 3 retries can still
	// produce the odd 500 — that is a delivered response too.)
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusInternalServerError:
		default:
			t.Fatalf("request %d: no definitive response (code %d)", i, code)
		}
	}
	m := scrapeMetrics(t, ts)
	if m("pip_running_solves") != 0 || m("pip_queued_requests") != 0 {
		t.Fatalf("drain left work behind: running %v, queued %v",
			m("pip_running_solves"), m("pip_queued_requests"))
	}
	if m("pip_draining") != 1 {
		t.Fatal("server not marked draining after Shutdown")
	}
	// New work is refused once draining.
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted new work: %d", code)
	}
}

func TestMetricsExposeResilience(t *testing.T) {
	armServeFaults(t, "seed=7;serve.handler=error:@1")
	s := New(Options{Retries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	postJSON(t, ts, "/v1/solve", body, nil) // hit #1 injects, filling the fault counter
	postJSON(t, ts, "/v1/solve", body, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pip_breaker_state 0",
		"pip_breaker_trips_total 0",
		"pip_breaker_rejected_total 0",
		"pip_retries_total",
		"pip_watchdog_fired_total",
		"pip_budget_tightened_total",
		"pip_cache_corrupt_total",
		"pip_coalesced_total",
		"pip_handler_panics_total",
		`pip_faults_injected_total{point="serve.handler",kind="error"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestRetryAfterSeconds pins the helper's contract: ceil to whole
// seconds, floored at 1 — sub-second cooldowns must never truncate to 0.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// assertRetryAfterFloor checks the shed-path contract: every 429/503
// carries a Retry-After that is a whole number of seconds >= 1. A "0"
// (sub-second delay truncated down) would instruct well-behaved clients
// to hammer a server that is shedding load.
func assertRetryAfterFloor(t *testing.T, resp *http.Response) {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatalf("%d response missing Retry-After", resp.StatusCode)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", v)
	}
}

// TestShedPathsRetryAfterAtLeastOne drives each shed path — open breaker
// 503, queue-full 429, draining 503 — and asserts the floor directly. The
// breaker's 10ms cooldown makes its remaining delay sub-second, the case
// that integer-second truncation used to render as "0".
func TestShedPathsRetryAfterAtLeastOne(t *testing.T) {
	s := New(Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		Breaker:       BreakerOptions{Window: 4, MinSamples: 2, Threshold: 0.5, Cooldown: 10 * time.Millisecond, Probes: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Open breaker: trip by hand so the whole cooldown (10ms) remains.
	s.breaker.mu.Lock()
	s.breaker.trip()
	s.breaker.mu.Unlock()
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker answered %d, want 503", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
	// Wait out the cooldown and let one probe (a 4xx is not a breaker
	// failure) re-close it, so the later paths are not shadowed by the
	// breaker.
	time.Sleep(20 * time.Millisecond)
	post()

	// Queue full: occupy every admission slot so the non-blocking take in
	// admitted fails.
	for i := 0; i < cap(s.queueSlots); i++ {
		s.queueSlots <- struct{}{}
	}
	resp = post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
	for i := 0; i < cap(s.queueSlots); i++ {
		<-s.queueSlots
	}

	// Draining: a post-shutdown request is refused with a pointer at the
	// successor.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
