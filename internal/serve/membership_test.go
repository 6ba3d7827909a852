package serve

// Tests for dynamic cluster membership: ring-rebuild determinism, the
// arc-remap property of consistent hashing under join/leave, the
// drain/remove lineage protocol, the active health prober, hedged
// forwards and their retry budget, and the healthz "degraded" fix.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// plainRouter builds a router over fake backend URLs with no prober —
// for tests that exercise ring math without any traffic.
func plainRouter(t *testing.T, urls ...string) *Router {
	t.Helper()
	rt := NewRouter(RouterOptions{Backends: urls, Probe: ProbeOptions{Disabled: true}})
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterHealthzDegradedWhenBreakersOpen is the regression test for
// the healthz bug: the router used to report "ok" even with every
// breaker open. Open breakers must read "degraded" — still HTTP 200,
// because every admitted request still gets a sound answer.
func TestRouterHealthzDegradedWhenBreakersOpen(t *testing.T) {
	rt, ts, _, _ := newCluster(t, 2, RouterOptions{Probe: ProbeOptions{Disabled: true}})

	var h routerHealthz
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.Open != 0 {
		t.Fatalf("fresh router healthz: %+v", h)
	}

	for _, b := range rt.snap.Load().backends {
		b.breaker.forceOpen()
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz returned %d, want 200 (degraded is not down)", resp.StatusCode)
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "degraded" || h.Open != 2 {
		t.Fatalf("healthz with all breakers open: %+v, want degraded/2", h)
	}

	for _, b := range rt.snap.Load().backends {
		b.breaker.forceClose()
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.Open != 0 {
		t.Fatalf("healthz after recovery: %+v", h)
	}
}

// TestCandidatesZeroAlloc pins the candidate-selection fast path: with a
// caller-provided buffer it must not allocate (the old implementation
// built a map per request).
func TestCandidatesZeroAlloc(t *testing.T) {
	rt := plainRouter(t, "http://a", "http://b", "http://c")
	snap := rt.snap.Load()
	key := routeKey(&routeProbe{C: "int x; int *p = &x;"}, "")
	var n int
	allocs := testing.AllocsPerRun(200, func() {
		var cbuf [8]*routerBackend
		n = len(snap.candidates(key, cbuf[:0]))
	})
	if n != 3 {
		t.Fatalf("candidates returned %d backends, want 3", n)
	}
	if allocs != 0 {
		t.Fatalf("candidates allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkRouterCandidates(b *testing.B) {
	rt := NewRouter(RouterOptions{
		Backends: []string{"http://a", "http://b", "http://c", "http://d", "http://e"},
		Probe:    ProbeOptions{Disabled: true},
	})
	defer rt.Close()
	snap := rt.snap.Load()
	key := routeKey(&routeProbe{C: "int x; int *p = &x;"}, "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cbuf [8]*routerBackend
		if len(snap.candidates(key, cbuf[:0])) != 5 {
			b.Fatal("short candidate list")
		}
	}
}

// TestRingRebuildOrderIndependent: the same membership set must produce
// the identical ring whatever sequence of adds and removes led to it —
// this is what makes a reroute during churn land where a fresh route
// would.
func TestRingRebuildOrderIndependent(t *testing.T) {
	ref := plainRouter(t, "http://a:1", "http://b:1", "http://c:1")

	viaRemove := plainRouter(t, "http://d:1", "http://c:1", "http://a:1", "http://b:1")
	if err := viaRemove.RemoveBackend("http://d:1"); err != nil {
		t.Fatal(err)
	}
	viaAdd := plainRouter(t, "http://c:1")
	for _, u := range []string{"http://a:1", "http://b:1"} {
		if err := viaAdd.AddBackend(u); err != nil {
			t.Fatal(err)
		}
	}

	want := ref.snap.Load()
	for name, rt := range map[string]*Router{"remove-order": viaRemove, "add-order": viaAdd} {
		got := rt.snap.Load()
		var gotURLs, wantURLs []string
		for _, b := range got.backends {
			gotURLs = append(gotURLs, b.url)
		}
		for _, b := range want.backends {
			wantURLs = append(wantURLs, b.url)
		}
		if !reflect.DeepEqual(gotURLs, wantURLs) {
			t.Fatalf("%s: backend order %v, want %v", name, gotURLs, wantURLs)
		}
		if !reflect.DeepEqual(got.ring, want.ring) {
			t.Fatalf("%s: ring differs from reference despite identical membership", name)
		}
	}
}

// TestRingJoinLeaveRemapsOnlyOwnedArcs is the consistent-hashing
// property: removing a backend only remaps the keys it owned, and
// adding one only claims keys for itself — everything else stays put.
func TestRingJoinLeaveRemapsOnlyOwnedArcs(t *testing.T) {
	rt := plainRouter(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = routeKey(&routeProbe{C: fmt.Sprintf("int k%d;", i)}, "")
	}
	owner := func(s *ringSnapshot, key uint64) string {
		c := s.candidates(key, nil)
		if len(c) == 0 {
			t.Fatal("empty ring")
		}
		return c[0].url
	}
	before := rt.snap.Load()

	if err := rt.RemoveBackend("http://d:1"); err != nil {
		t.Fatal(err)
	}
	afterLeave := rt.snap.Load()
	moved := 0
	for _, k := range keys {
		was, is := owner(before, k), owner(afterLeave, k)
		if was == "http://d:1" {
			moved++
			if is == "http://d:1" {
				t.Fatal("removed backend still owns keys")
			}
			continue
		}
		if is != was {
			t.Fatalf("key moved %s -> %s though the removed backend never owned it", was, is)
		}
	}
	if moved == 0 {
		t.Fatal("removed backend owned no keys out of 2000 — ring badly skewed")
	}

	if err := rt.AddBackend("http://e:1"); err != nil {
		t.Fatal(err)
	}
	afterJoin := rt.snap.Load()
	claimed := 0
	for _, k := range keys {
		was, is := owner(afterLeave, k), owner(afterJoin, k)
		if is == "http://e:1" {
			claimed++
			continue
		}
		if is != was {
			t.Fatalf("join remapped key %s -> %s instead of to the joiner", was, is)
		}
	}
	if claimed == 0 {
		t.Fatal("joined backend claimed no keys out of 2000")
	}
}

// TestAdminDrainAndRemoveLineageProtocol walks a resolve lineage through
// graceful removal: drain keeps the pinned lineage alive on its owner,
// remove purges the pin and the client gets the standard 404-restart.
func TestAdminDrainAndRemoveLineageProtocol(t *testing.T) {
	rt, ts, _, _ := newCluster(t, 3, RouterOptions{Probe: ProbeOptions{Disabled: true}})

	var r0 resolveResponse
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	}, &r0); code != http.StatusOK {
		t.Fatalf("create returned %d", code)
	}
	rt.mu.Lock()
	pinned := rt.handles[r0.Handle]
	rt.mu.Unlock()
	if pinned == nil {
		t.Fatal("lineage not pinned")
	}

	// Drain the owner: it leaves the ring but the lineage continues.
	var ring ringResponse
	if code := postJSON(t, ts, "/admin/backends",
		adminBackendsRequest{Op: "drain", Backend: pinned.url}, &ring); code != http.StatusOK {
		t.Fatalf("drain returned %d", code)
	}
	if ring.Generation < 2 {
		t.Fatalf("drain did not bump the ring generation: %+v", ring)
	}
	for _, b := range ring.Backends {
		if b.URL == pinned.url && (b.State != "draining" || b.Ownership != 0 || b.VNodes != 0) {
			t.Fatalf("drained backend still on the ring: %+v", b)
		}
	}
	var r1 resolveResponse
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: resolveSrcEdit},
		Handle:        r0.Handle,
	}, &r1); code != http.StatusOK {
		t.Fatalf("resubmit to draining owner returned %d", code)
	}
	if r1.Handle != r0.Handle || r1.Generation != 1 {
		t.Fatalf("lineage broken by drain: %+v", r1)
	}

	// Remove the owner: the pin is purged and a resubmission hits a
	// backend with no such session — the 404-restart protocol.
	if code := postJSON(t, ts, "/admin/backends",
		adminBackendsRequest{Op: "remove", Backend: pinned.url}, &ring); code != http.StatusOK {
		t.Fatalf("remove returned %d", code)
	}
	if len(ring.Backends) != 2 {
		t.Fatalf("removed backend still resident: %+v", ring)
	}
	rt.mu.Lock()
	stillPinned := rt.handles[r0.Handle]
	rt.mu.Unlock()
	if stillPinned != nil {
		t.Fatal("pin to removed backend not purged")
	}
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: resolveSrcEdit},
		Handle:        r0.Handle,
	}, nil); code != http.StatusNotFound {
		t.Fatalf("resubmit after remove returned %d, want 404 (restart protocol)", code)
	}
	var r2 resolveResponse
	if code := postJSON(t, ts, "/v1/resolve", resolveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: resolveSrcEdit},
	}, &r2); code != http.StatusOK {
		t.Fatalf("lineage restart returned %d", code)
	}
	if r2.Handle == "" || r2.Generation != 0 {
		t.Fatalf("restarted lineage: %+v", r2)
	}
}

// TestAdminBackendsErrors pins the admin surface's error contract.
func TestAdminBackendsErrors(t *testing.T) {
	_, ts, _, backends := newCluster(t, 2, RouterOptions{Probe: ProbeOptions{Disabled: true}})
	cases := []struct {
		req  adminBackendsRequest
		want int
	}{
		{adminBackendsRequest{Op: "add", Backend: backends[0].URL}, http.StatusConflict},
		{adminBackendsRequest{Op: "remove", Backend: "http://nobody:1"}, http.StatusNotFound},
		{adminBackendsRequest{Op: "drain", Backend: "http://nobody:1"}, http.StatusNotFound},
		{adminBackendsRequest{Op: "add", Backend: "not a url"}, http.StatusBadRequest},
		{adminBackendsRequest{Op: "explode", Backend: backends[0].URL}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := postJSON(t, ts, "/admin/backends", c.req, nil); code != c.want {
			t.Fatalf("%+v returned %d, want %d", c.req, code, c.want)
		}
	}
}

// TestSetBackendsReconciles covers the SIGHUP-reload primitive: a diff
// against the desired set in one generation, survivors keeping their
// identity, and the empty-set refusal.
func TestSetBackendsReconciles(t *testing.T) {
	rt, _, _, backends := newCluster(t, 2, RouterOptions{Probe: ProbeOptions{Disabled: true}})
	keep := rt.snap.Load().backends[0]
	genBefore := rt.snap.Load().gen

	added, removed, err := rt.SetBackends([]string{keep.url, "http://new:1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "http://new:1" || len(removed) != 1 {
		t.Fatalf("diff: added=%v removed=%v", added, removed)
	}
	snap := rt.snap.Load()
	if snap.gen != genBefore+1 {
		t.Fatalf("reload took %d generations, want 1", snap.gen-genBefore)
	}
	found := false
	for _, b := range snap.backends {
		if b.url == keep.url {
			if b != keep {
				t.Fatal("surviving backend was recreated — breaker history lost")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("surviving backend missing")
	}

	// No-op reload: no generation bump.
	if _, _, err := rt.SetBackends([]string{keep.url, "http://new:1"}); err != nil {
		t.Fatal(err)
	}
	if g := rt.snap.Load().gen; g != snap.gen {
		t.Fatalf("no-op reload bumped generation %d -> %d", snap.gen, g)
	}

	// An empty set (truncated backends file) is refused.
	if _, _, err := rt.SetBackends(nil); err == nil {
		t.Fatal("empty backend set accepted")
	}
	_ = backends
}

// TestProberOpensAndClosesBreaker: with zero user traffic, the active
// prober discovers a sick backend (forcing its breaker open, with a
// probe.fail flight dump) and its recovery (closing the breaker again).
func TestProberOpensAndClosesBreaker(t *testing.T) {
	var healthy atomic.Bool
	bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(bts.Close)
	rt := NewRouter(RouterOptions{
		Backends: []string{bts.URL},
		Probe: ProbeOptions{
			Interval:         10 * time.Millisecond,
			Timeout:          200 * time.Millisecond,
			FailThreshold:    2,
			SuccessThreshold: 1,
		},
	})
	t.Cleanup(rt.Close)
	b := rt.snap.Load().backends[0]

	waitState := func(want breakerState, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := b.breaker.snapshot(); st == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		st, _ := b.breaker.snapshot()
		t.Fatalf("%s: breaker stuck %v, want %v", what, st, want)
	}

	waitState(breakerOpen, "sick backend")
	// The prober forces the breaker open before it triggers the probe.fail
	// dump, so the dump may land just after the state flips: poll for it.
	probeDumped := func() bool {
		for _, d := range rt.flight.Dumps() {
			if d.Reason == flightTriggerProbeFail {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !probeDumped(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no probe.fail flight dump after the prober opened the breaker")
		}
	}
	if rt.probeFailsTotal.Load() == 0 || b.probeFails.Load() == 0 {
		t.Fatal("probe failures not counted")
	}

	healthy.Store(true)
	waitState(breakerClosed, "recovered backend")
}

// slowCluster builds a 3-shard cluster where one backend delays every
// analysis answer, and returns a module source whose route key makes the
// slow backend the primary owner.
func slowCluster(t *testing.T, slowDelay time.Duration, ropts RouterOptions) (*Router, *httptest.Server, func(i int) string) {
	t.Helper()
	servers := make([]*Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		servers[i] = New(Options{})
		h := servers[i].Handler()
		if i == 0 {
			sh := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/solve" {
					time.Sleep(slowDelay)
				}
				sh.ServeHTTP(w, r)
			})
		}
		bts := httptest.NewServer(h)
		t.Cleanup(bts.Close)
		urls[i] = bts.URL
	}
	ropts.Backends = urls
	ropts.Probe = ProbeOptions{Disabled: true}
	rt := NewRouter(ropts)
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	// Find sources owned by the slow backend so every request must
	// either wait for it or hedge past it.
	snap := rt.snap.Load()
	slowSrc := func(i int) string {
		for j := 0; ; j++ {
			src := fmt.Sprintf("static int s%d_%d; int *ps%d_%d = &s%d_%d;", i, j, i, j, i, j)
			c := snap.candidates(routeKey(&routeProbe{C: src}, ""), nil)
			if c[0].url == urls[0] {
				return src
			}
		}
	}
	return rt, ts, slowSrc
}

// TestRouterHedgedForwardWinsOverSlowShard: a primary slower than the
// hedge delay gets raced; the fast candidate's answer wins well before
// the slow shard would have answered, and nothing is dropped.
func TestRouterHedgedForwardWinsOverSlowShard(t *testing.T) {
	rt, ts, slowSrc := slowCluster(t, 400*time.Millisecond, RouterOptions{
		Hedge: HedgeOptions{DelayMin: 20 * time.Millisecond, DelayMax: 20 * time.Millisecond, Burst: 4},
	})
	start := time.Now()
	var resp solveResponse
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: slowSrc(0)},
	}, &resp); code != http.StatusOK {
		t.Fatalf("hedged solve returned %d", code)
	}
	if resp.Degraded {
		t.Fatal("hedged solve degraded with two fast shards up")
	}
	if d := time.Since(start); d >= 300*time.Millisecond {
		t.Fatalf("hedge did not race the slow shard: answered in %v", d)
	}
	if rt.hedges.Load() == 0 || rt.hedgeWins.Load() == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", rt.hedges.Load(), rt.hedgeWins.Load())
	}
}

// TestRouterHedgeBudgetCap: the token bucket caps hedging — once Burst
// is spent (and with a negligible refill ratio), further slow requests
// wait for their primary instead of multiplying load.
func TestRouterHedgeBudgetCap(t *testing.T) {
	rt, ts, slowSrc := slowCluster(t, 120*time.Millisecond, RouterOptions{
		Hedge: HedgeOptions{
			DelayMin: 10 * time.Millisecond, DelayMax: 10 * time.Millisecond,
			Burst: 2, Ratio: 0.0001,
		},
	})
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts, "/v1/solve", solveRequest{
			moduleRequest: moduleRequest{Name: "t.c", C: slowSrc(i)},
		}, nil); code != http.StatusOK {
			t.Fatalf("request %d returned %d", i, code)
		}
	}
	if got := rt.hedges.Load(); got != 2 {
		t.Fatalf("hedges = %d, want exactly Burst = 2", got)
	}
	if got := rt.hedgeDenied.Load(); got != 3 {
		t.Fatalf("hedgeDenied = %d, want 3", got)
	}
}

// TestRemoveLastBackendDegrades: runtime removal down to zero is
// allowed, and the router keeps its sound-answer contract via the local
// Ω fallback until a backend joins again.
func TestRemoveLastBackendDegrades(t *testing.T) {
	rt, ts, _, backends := newCluster(t, 1, RouterOptions{Probe: ProbeOptions{Disabled: true}})
	if err := rt.RemoveBackend(backends[0].URL); err != nil {
		t.Fatal(err)
	}
	var resp solveResponse
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
		Queries:       []string{"p"},
	}, &resp); code != http.StatusOK {
		t.Fatalf("zero-backend solve returned %d, want 200 (degraded)", code)
	}
	if !resp.Degraded || !resp.PointsTo["p"].External {
		t.Fatalf("zero-backend answer not the sound Ω: %+v", resp)
	}

	if err := rt.AddBackend(backends[0].URL); err != nil {
		t.Fatal(err)
	}
	resp = solveResponse{}
	if code := postJSON(t, ts, "/v1/solve", solveRequest{
		moduleRequest: moduleRequest{Name: "t.c", C: solveSrc},
	}, &resp); code != http.StatusOK {
		t.Fatalf("rejoined solve returned %d", code)
	}
	if resp.Degraded {
		t.Fatal("still degraded after the backend rejoined")
	}
}
