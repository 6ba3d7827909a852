// Router and persistent-store chaos: the PR 8 additions to the
// invariant suite. The router test kills a live shard mid-load and
// checks the promises end to end — every request answered, every
// non-degraded answer bit-exact, degradation (reroute or local Ω) the
// only concession. The store test flips and fails disk records under
// load and checks that verification turns every corruption into a miss,
// never a served lie.
package chaos_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/serve"
	"github.com/pip-analysis/pip/internal/store"
	"github.com/pip-analysis/pip/internal/workload"
)

// chaosSeedRouter pins the router/store chaos trajectory separately from
// the main suite. Override with PIP_CHAOS_SEED3 to explore.
func chaosSeedRouter() int64 {
	if v := os.Getenv("PIP_CHAOS_SEED3"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 777
}

// TestChaosRouterKillShard is the PR 8 acceptance scenario: three shards
// behind the router, concurrent load, one shard killed mid-flight with
// its connections cut, plus injected router.forward faults. Every
// request must come back definitive and sound: exact (200), degraded Ω
// (200, marked), or honestly refused — never dropped, never wrong.
func TestChaosRouterKillShard(t *testing.T) {
	srcs := make([]string, 8)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`
static int x%d;
int *p%d = &x%d;
extern void take(int**);
void f%d() { take(&p%d); }
`, i, i, i, i, i)
	}
	// Ground truth under the default configuration, before arming.
	exact := make([]string, len(srcs))
	for i, src := range srcs {
		m, err := pip.CompileC("chaos.c", src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pip.Analyze(m, pip.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = res.Dump()
	}

	servers := make([]*serve.Server, 3)
	backends := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	owned := make([]int, 3)
	var ownedMu sync.Mutex
	for i := range servers {
		servers[i] = serve.New(serve.Options{MaxConcurrent: 4, MaxQueue: 64})
		h := servers[i].Handler()
		backends[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.Header.Get("X-Request-Id"), ownerProbeID) {
				ownedMu.Lock()
				owned[i]++
				ownedMu.Unlock()
				w.Write([]byte("{}"))
				return
			}
			h.ServeHTTP(w, r)
		}))
		urls[i] = backends[i].URL
		defer backends[i].Close()
	}
	// The victim must own keys. The ring hashes backend URLs (ephemeral
	// ports), so a fixed victim index sometimes names a shard that owns
	// none of the sources: no request fails into it, its breaker never
	// opens, and the flight-recorder check below has nothing to catch.
	// Kill the shard owning the most sources instead.
	victim := ringOwner(t, urls, srcs, owned, &ownedMu)

	reg, err := faults.ParseSpec(fmt.Sprintf("seed=%d;router.forward=error:0.05", chaosSeedRouter()))
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(reg)
	t.Cleanup(faults.Disarm)

	// Flight-recorder dumps land where CI can collect them on failure
	// (PIP_CHAOS_DUMPDIR), or in a throwaway dir otherwise.
	dumpDir := os.Getenv("PIP_CHAOS_DUMPDIR")
	if dumpDir == "" {
		dumpDir = t.TempDir()
	}
	rt := serve.NewRouter(serve.RouterOptions{
		Backends:  urls,
		Breaker:   serve.BreakerOptions{Window: 8, MinSamples: 4, Threshold: 0.5, Cooldown: 50 * time.Millisecond, Probes: 2},
		FlightDir: dumpDir,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	type reply struct {
		code     int
		degraded bool
		dump     string
		src      int
	}
	const rounds = 8
	replies := make([]reply, 0, rounds*len(srcs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for r := 0; r < rounds; r++ {
		for si, src := range srcs {
			wg.Add(1)
			go func(r, si int, src string) {
				defer wg.Done()
				body, _ := json.Marshal(map[string]string{"c": src})
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Errorf("round %d src %d: transport error (dropped request): %v", r, si, err)
					return
				}
				defer resp.Body.Close()
				var out struct {
					Degraded bool   `json:"degraded"`
					Dump     string `json:"dump"`
				}
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Errorf("round %d src %d: bad 200 body: %v", r, si, err)
						return
					}
				}
				mu.Lock()
				replies = append(replies, reply{resp.StatusCode, out.Degraded, out.Dump, si})
				mu.Unlock()
			}(r, si, src)
		}
		if r == rounds/2 {
			// Kill a live shard mid-load: cut its connections (in-flight
			// forwards fail over) and stop accepting new ones.
			backends[victim].CloseClientConnections()
			backends[victim].Close()
			close(killed)
		}
	}
	wg.Wait()
	<-killed

	var exactN, degraded, refused, failed int
	for _, rp := range replies {
		switch rp.code {
		case http.StatusOK:
			if rp.degraded {
				degraded++ // sound Ω via the router's local fallback
				continue
			}
			exactN++
			if rp.dump != exact[rp.src] {
				t.Fatalf("unsound non-degraded response for src %d", rp.src)
			}
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			refused++ // shed: answered, not dropped
		case http.StatusInternalServerError:
			failed++ // honest failure: answered, not dropped
		default:
			t.Fatalf("unexpected status %d for src %d", rp.code, rp.src)
		}
	}
	// Never a drop: every fired request is accounted for.
	if len(replies) != rounds*len(srcs) {
		t.Fatalf("dropped requests: sent %d, answered %d", rounds*len(srcs), len(replies))
	}
	t.Logf("router chaos: %d exact, %d degraded, %d refused, %d failed (1 shard killed mid-load)",
		exactN, degraded, refused, failed)
	if exactN == 0 {
		t.Fatal("chaos drowned every request; the suite proved nothing")
	}
	if faults.Active().Hits(faults.RouterForward) == 0 {
		t.Fatal("injection point router.forward never reached")
	}
	// The cluster still answers exactly after the kill: the dead shard's
	// keyspace rerouted to the survivors.
	for si, src := range srcs {
		body, _ := json.Marshal(map[string]string{"c": src})
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("post-kill src %d: %v", si, err)
		}
		var out struct {
			Degraded bool   `json:"degraded"`
			Dump     string `json:"dump"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill src %d: status %d", si, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !out.Degraded && out.Dump != exact[si] {
			t.Fatalf("post-kill src %d: unsound answer", si)
		}
	}

	// The flight recorder must have caught the anomaly: killing the shard
	// drove its breaker open, and the dump names which backend tripped.
	var flight struct {
		Dumps []obs.Dump `json:"dumps"`
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/debug/flightrec")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&flight)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("bad /debug/flightrec body: %v", err)
		}
		found := false
		for _, d := range flight.Dumps {
			if d.Reason == "breaker.open" && strings.Contains(d.Detail, urls[victim]) {
				found = true
				if d.File == "" {
					t.Fatal("breaker.open dump has no on-disk file despite FlightDir")
				}
				if _, err := os.Stat(d.File); err != nil {
					t.Fatalf("breaker.open dump file missing: %v", err)
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flight-recorder dump names the killed backend %s (dumps: %+v)", urls[victim], flight.Dumps)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ownerProbeID prefixes the request IDs of ringOwner's probes; the
// chaos backends answer those themselves, without solving.
const ownerProbeID = "owner-probe-"

// ringOwner returns the index of the backend owning the most srcs on a
// router over urls. It routes one tagged probe per source through a
// throwaway router — ring placement depends only on the backend URLs, so
// ownership carries over to any router with the same backends — and
// reads which backend each probe reached from owned.
func ringOwner(t *testing.T, urls, srcs []string, owned []int, mu *sync.Mutex) int {
	t.Helper()
	rt := serve.NewRouter(serve.RouterOptions{
		Backends: urls,
		Probe:    serve.ProbeOptions{Disabled: true},
		Hedge:    serve.HedgeOptions{Disabled: true},
	})
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	for i, src := range srcs {
		body, _ := json.Marshal(map[string]string{"c": src})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(string(body)))
		req.Header.Set("X-Request-Id", fmt.Sprintf("%s%d", ownerProbeID, i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("ownership probe %d: %v", i, err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	best := 0
	for i, n := range owned {
		if n > owned[best] {
			best = i
		}
	}
	if owned[best] == 0 {
		t.Fatalf("ownership probes reached no backend: %v", owned)
	}
	return best
}

// TestChaosStoreFaults hammers the persistent store's fault points:
// saves fail, loads fail, and loaded records are bit-flipped. The
// verify-on-load contract must hold — a flipped record is a miss that
// re-solves, never a served corruption — so every answer stays exact
// across repeated warm restarts.
func TestChaosStoreFaults(t *testing.T) {
	const nModules = 5
	mods := make([]*pip.Module, 0, nModules)
	for seed := int64(1); len(mods) < nModules; seed++ {
		mods = append(mods, workload.GenerateLinked(seed).A)
	}
	cfg := core.DefaultConfig()
	exact := make([]string, len(mods))
	for i, m := range mods {
		exact[i] = core.MustSolve(core.Generate(m).Problem, cfg).Fingerprint()
	}

	// One rule per point (the spec's last clause wins): saves error, loads
	// flip. Load errors are covered by the engine store tests.
	reg, err := faults.ParseSpec(fmt.Sprintf(
		"seed=%d;store.save=error:0.15;store.load=flip:0.3", chaosSeedRouter()))
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(reg)
	t.Cleanup(faults.Disarm)

	dir := t.TempDir()
	const restarts = 4
	var diskHits, corrupt int64
	for round := 0; round < restarts; round++ {
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		eng := engine.New(engine.Options{Workers: 2, Cache: true})
		eng.SetStore(ds)
		var jobs []engine.Job
		for _, m := range mods {
			jobs = append(jobs, engine.Job{Module: m, Config: cfg})
		}
		for mi, res := range eng.Run(jobs) {
			if res.Err != nil {
				t.Fatalf("restart %d mod %d: store faults must never fail a job: %v", round, mi, res.Err)
			}
			if res.Degraded {
				t.Fatalf("restart %d mod %d: store faults must never degrade a solve", round, mi)
			}
			if got := res.Sol.Fingerprint(); got != exact[mi] {
				t.Fatalf("restart %d mod %d: unsound answer under store chaos", round, mi)
			}
		}
		if err := eng.SyncStore(); err != nil {
			t.Fatalf("restart %d: sync: %v", round, err)
		}
		st := eng.Stats()
		diskHits += st.DiskHits
		corrupt += st.StoreCorrupt
		ds.Close()
	}
	t.Logf("store chaos: %d disk hits, %d corruptions caught over %d restarts", diskHits, corrupt, restarts)
	// The trajectory is pinned by the seed: both sides of the contract
	// must actually have been exercised — clean records hit, and at
	// least one flip was caught by verification.
	if diskHits == 0 {
		t.Fatal("no disk hits across restarts; the store tier was never exercised")
	}
	if corrupt == 0 {
		t.Fatal("no corruption caught despite 30% load flips; verification was never exercised")
	}
	for _, p := range []faults.Point{faults.StoreSave, faults.StoreLoad} {
		if faults.Active().Hits(p) == 0 {
			t.Fatalf("injection point %s never reached", p)
		}
	}
}
