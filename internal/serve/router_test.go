package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pip-analysis/pip/internal/obs"
)

// newCluster starts n real pipserve backends and a router over them,
// returning the router's test server and the backend handles for
// killing and inspection.
func newCluster(t *testing.T, n int, ropts RouterOptions) (*Router, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	backends := make([]*httptest.Server, n)
	ropts.Backends = make([]string, n)
	for i := range servers {
		servers[i] = New(Options{})
		backends[i] = httptest.NewServer(servers[i].Handler())
		ropts.Backends[i] = backends[i].URL
		t.Cleanup(backends[i].Close)
	}
	rt := NewRouter(ropts)
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts, servers, backends
}

func TestRouterCandidatesDeterministicAndCovering(t *testing.T) {
	rt := NewRouter(RouterOptions{
		Backends: []string{"http://a", "http://b", "http://c"},
		Probe:    ProbeOptions{Disabled: true},
	})
	defer rt.Close()
	snap := rt.snap.Load()
	owners := make(map[string]int)
	for i := 0; i < 1000; i++ {
		probe := &routeProbe{C: fmt.Sprintf("int x%d;", i)}
		key := routeKey(probe, "")
		c1 := snap.candidates(key, nil)
		c2 := snap.candidates(key, nil)
		if len(c1) != 3 || fmt.Sprint(c1) != fmt.Sprint(c2) {
			t.Fatalf("candidates not deterministic or incomplete: %v vs %v", c1, c2)
		}
		seen := map[*routerBackend]bool{}
		for _, b := range c1 {
			if seen[b] {
				t.Fatalf("duplicate backend in candidate order: %v", c1)
			}
			seen[b] = true
		}
		owners[c1[0].url]++
	}
	// Consistent hashing with 64 vnodes each: every backend owns a real
	// share of the keyspace (no precise split required, just coverage).
	for u, n := range owners {
		if n < 50 {
			t.Fatalf("backend %s owns only %d/1000 keys — ring badly skewed: %v", u, n, owners)
		}
	}
	if len(owners) != 3 {
		t.Fatalf("only %d backends own keys: %v", len(owners), owners)
	}
}

// TestRouterAffinityHitsPeerCache: identical modules always land on the
// same shard, so the second request is that shard's cache hit — the
// cluster consults the peer's cache instead of re-solving locally.
func TestRouterAffinityHitsPeerCache(t *testing.T) {
	_, ts, servers, _ := newCluster(t, 3, RouterOptions{})
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}

	var r1, r2 solveResponse
	if code := postJSON(t, ts, "/v1/solve", body, &r1); code != http.StatusOK {
		t.Fatalf("first solve returned %d", code)
	}
	if code := postJSON(t, ts, "/v1/solve", body, &r2); code != http.StatusOK {
		t.Fatalf("second solve returned %d", code)
	}
	if r1.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if !r2.CacheHit {
		t.Fatal("second identical request missed the owning shard's cache — affinity broken")
	}
	// Exactly one backend saw both requests.
	busy := 0
	for _, s := range servers {
		if n := s.accepted.Load(); n == 2 {
			busy++
		} else if n != 0 {
			t.Fatalf("backend saw %d requests, want 0 or 2", n)
		}
	}
	if busy != 1 {
		t.Fatalf("%d backends saw traffic for one module, want exactly 1", busy)
	}
}

// TestRouterResolveHandleAffinity: a lineage's resubmissions follow its
// handle to the backend holding the session state, whatever the edited
// module hashes to.
func TestRouterResolveHandleAffinity(t *testing.T) {
	_, ts, _, _ := newCluster(t, 3, RouterOptions{})

	var r0 resolveResponse
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	}, &r0); code != http.StatusOK {
		t.Fatalf("create returned %d", code)
	}
	if r0.Handle == "" || r0.Generation != 0 {
		t.Fatalf("bad first resolve: %+v", r0)
	}
	// Edited resubmission: the module content changed (would hash
	// elsewhere) but the handle pins it to the owner.
	var r1 resolveResponse
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: resolveSrcEdit},
		Handle:        r0.Handle,
	}, &r1); code != http.StatusOK {
		t.Fatalf("resubmit returned %d", code)
	}
	if r1.Handle != r0.Handle || r1.Generation != 1 {
		t.Fatalf("lineage did not continue on the owning shard: %+v", r1)
	}
}

// TestRouterReroutesAroundDeadBackend: with one of three shards dead,
// every request still gets an exact answer from a surviving shard.
func TestRouterReroutesAroundDeadBackend(t *testing.T) {
	rt, ts, _, backends := newCluster(t, 3, RouterOptions{Breaker: fastBreaker()})
	backends[1].Close()

	for i := 0; i < 9; i++ {
		var resp solveResponse
		body := solveRequest{moduleRequest: moduleRequest{Name: "t.c",
			C: fmt.Sprintf("static int x%d; int *p%d = &x%d;", i, i, i)}}
		if code := postJSON(t, ts, "/v1/solve", body, &resp); code != http.StatusOK {
			t.Fatalf("request %d returned %d with a dead shard", i, code)
		}
		if resp.Degraded {
			t.Fatalf("request %d degraded with two healthy shards up", i)
		}
	}
	// ~1/3 of the keyspace belonged to the dead shard; those forwards
	// failed over. (All 9 could hash to live shards only by bad luck;
	// the ring test above guarantees real coverage at 1000 keys, so at 9
	// we only require the router survived. Reroute accounting is checked
	// by the fault-injection test below.)
	if rt.forwarded.Load() != 9 {
		t.Fatalf("forwarded = %d, want 9", rt.forwarded.Load())
	}
}

// TestRouterForwardFaultReroutes: an injected router.forward fault on
// the first attempt fails over to the next shard, invisibly to the
// client.
func TestRouterForwardFaultReroutes(t *testing.T) {
	armServeFaults(t, "seed=7;router.forward=error:@1")
	rt, ts, _, _ := newCluster(t, 2, RouterOptions{})
	var resp solveResponse
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	if code := postJSON(t, ts, "/v1/solve", body, &resp); code != http.StatusOK {
		t.Fatalf("faulted forward returned %d", code)
	}
	if resp.Degraded {
		t.Fatal("one faulted attempt must reroute, not degrade")
	}
	if rt.rerouted.Load() == 0 {
		t.Fatal("reroute not counted")
	}
}

// TestRouterDegradesLocallyWhenAllShardsDown: the answer of last resort
// is the local sound Ω solution — 200, degraded, everything external —
// never a drop or a 502.
func TestRouterDegradesLocallyWhenAllShardsDown(t *testing.T) {
	rt, ts, _, backends := newCluster(t, 2, RouterOptions{Breaker: fastBreaker()})
	for _, b := range backends {
		b.Close()
	}
	var resp solveResponse
	body := solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}
	if code := postJSON(t, ts, "/v1/solve", body, &resp); code != http.StatusOK {
		t.Fatalf("all-down solve returned %d, want 200 (degraded)", code)
	}
	if !resp.Degraded {
		t.Fatal("all-down answer not marked degraded")
	}
	if !resp.PointsTo["p"].External {
		t.Fatal("degraded answer must be the sound Ω: p points to external memory")
	}
	if rt.degradedLocal.Load() != 1 {
		t.Fatalf("degradedLocal = %d, want 1", rt.degradedLocal.Load())
	}

	// Alias queries degrade to MayAlias, the sound verdict.
	var ar aliasResponse
	if code := postJSON(t, ts, "/v1/alias", aliasRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Pairs:         [][2]string{{"p", "p"}},
	}, &ar); code != http.StatusOK {
		t.Fatalf("all-down alias returned %d", code)
	}
	if !ar.Degraded || len(ar.Answers) != 1 || ar.Answers[0].Result == "NoAlias" {
		t.Fatalf("all-down alias answer unsound or missing: %+v", ar)
	}

	// A garbage module is still the client's fault, even all-down.
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: "not a module @@@"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad module returned %d, want 400", code)
	}
}

// TestRouterAllDownAnswersLikeServer: with every shard down the router
// gives each body the status a live server gives it. Every 200 is a
// degraded local Ω answer; every 4xx counts as a bad request and
// neither counts as a local degradation nor fires a flight dump.
func TestRouterAllDownAnswersLikeServer(t *testing.T) {
	live := httptest.NewServer(New(Options{}).Handler())
	defer live.Close()
	rt, ts, _, backends := newCluster(t, 1, RouterOptions{Probe: ProbeOptions{Disabled: true}})
	if err := rt.RemoveBackend(backends[0].URL); err != nil {
		t.Fatal(err)
	}
	post := func(base, path, body string) (int, bool) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Degraded bool `json:"degraded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Degraded
	}

	src, _ := json.Marshal(solveSrc)
	for _, path := range []string{"/v1/solve", "/v1/alias", "/v1/resolve"} {
		ask := `"queries": ["p"]`
		if path == "/v1/alias" {
			ask = `"pairs": [["p", "p"]]`
		}
		for _, tc := range []struct{ name, body string }{
			{"valid", fmt.Sprintf(`{"c": %s, %s}`, src, ask)},
			{"no pairs", fmt.Sprintf(`{"c": %s}`, src)},
			{"unknown field", fmt.Sprintf(`{"c": %s, %s, "querys": ["p"]}`, src, ask)},
			{"bad module", fmt.Sprintf(`{"c": "not a module @@@", %s}`, ask)},
			{"bad config", fmt.Sprintf(`{"c": %s, "config": "BOGUS", %s}`, src, ask)},
		} {
			want, _ := post(live.URL, path, tc.body)
			local, bad := rt.degradedLocal.Load(), rt.badRequests.Load()
			dumps, suppressed := rt.flight.DumpCount(), rt.flight.Suppressed()
			code, degraded := post(ts.URL, path, tc.body)
			if code != want {
				t.Fatalf("%s %s: all-down router answered %d, live server %d", path, tc.name, code, want)
			}
			if code == http.StatusOK {
				if !degraded || rt.degradedLocal.Load() != local+1 || rt.badRequests.Load() != bad {
					t.Fatalf("%s %s: 200 not counted as one local Ω answer (degraded=%v)", path, tc.name, degraded)
				}
				continue
			}
			if rt.degradedLocal.Load() != local || rt.badRequests.Load() != bad+1 {
				t.Fatalf("%s %s: %d counted as degradedLocal %d->%d, badRequests %d->%d", path, tc.name,
					code, local, rt.degradedLocal.Load(), bad, rt.badRequests.Load())
			}
			if rt.flight.DumpCount() != dumps || rt.flight.Suppressed() != suppressed {
				t.Fatalf("%s %s: %d fired a flight dump", path, tc.name, code)
			}
		}
	}
}

func TestRouterRequestIDAndDrain(t *testing.T) {
	rt, ts, _, _ := newCluster(t, 2, RouterOptions{})
	body := mustJSON(t, solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "router-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "router-test-42" {
		t.Fatalf("X-Request-Id = %q, want the caller's ID echoed", got)
	}

	// Draining router sheds with 503 + Retry-After >= 1.
	rt.Shutdown()
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d, want 503", resp.StatusCode)
	}
	assertRetryAfterFloor(t, resp)
}

func TestRouterHealthzAndMetrics(t *testing.T) {
	_, ts, _, backends := newCluster(t, 2, RouterOptions{Breaker: fastBreaker()})
	body := solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: solveSrc}}
	if code := postJSON(t, ts, "/v1/solve", body, nil); code != http.StatusOK {
		t.Fatalf("solve returned %d", code)
	}

	var h routerHealthz
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.Backends != 2 || h.Open != 0 {
		t.Fatalf("healthz: %+v", h)
	}

	// Kill a shard and trip its breaker with traffic: /healthz reports it.
	backends[0].Close()
	backends[1].Close()
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("static int y%d; int *q%d = &y%d;", i, i, i)
		postJSON(t, ts, "/v1/solve", solveRequest{moduleRequest: moduleRequest{Name: "t.c", C: src}}, nil)
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Open == 0 {
		t.Fatalf("no open breakers reported after killing every shard: %+v", h)
	}
	// Open breakers must surface as "degraded" (regression: the router
	// used to answer "ok" with every breaker open).
	if h.Status != "degraded" {
		t.Fatalf("healthz status = %q with %d open breakers, want \"degraded\"", h.Status, h.Open)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pip_router_forwarded_total",
		"pip_router_rerouted_total",
		"pip_router_degraded_local_total",
		"pip_router_backend_forwarded_total",
		"pip_router_backend_failures_total",
		"pip_router_backend_state",
		"pip_router_handle_pins",
		"pip_router_ring_generation",
		"pip_router_backends",
		"pip_router_backends_draining",
		"pip_router_membership_changes_total",
		"pip_router_probes_total",
		"pip_router_probe_failures_total",
		"pip_router_hedges_total",
		"pip_router_hedge_wins_total",
		"pip_router_hedge_denied_total",
		"pip_router_hedge_budget_tokens",
		"pip_trace_dropped_total",
		"pip_flightrec_dumps_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("router metrics missing %q in:\n%s", want, text)
		}
	}
	// The router's exposition must be structurally valid Prometheus text
	// format, like the server's.
	if err := obs.CheckExposition(string(text)); err != nil {
		t.Fatalf("router /metrics: invalid exposition: %v\n%s", err, text)
	}
}

// TestRouterRejectsEmptyBackends pins the constructor contract.
func TestRouterRejectsEmptyBackends(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRouter with no backends did not panic")
		}
	}()
	NewRouter(RouterOptions{})
}
