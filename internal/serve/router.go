package serve

// The shard router is the horizontal-scaling front door: it owns no
// engine of its own for normal traffic, but places every module on one
// of N pipserve backends by consistent hash of the module's content and
// configuration. Identical modules therefore always land on the same
// backend, whose solution cache (and persistent store, PR 8) already
// holds the answer — the cluster's caches shard instead of duplicating.
//
// Membership is dynamic (PR 10). The ring lives in an immutable
// snapshot swapped atomically on every change (RCU-style): a request
// in flight keeps the candidate list it started with, new requests see
// the new generation, and nothing is ever locked on the route path.
// Backends join, drain, and leave at runtime three ways — the admin
// surface (POST /admin/backends), a SIGHUP-reloaded backends file on
// cmd/pipserve, and the active health prober, which polls /healthz per
// backend and opens/closes the existing breakers on consecutive-failure
// and -success thresholds instead of waiting for a user request to fail.
//
// The router inherits the paper's degradation discipline end to end:
//
//   - a per-backend circuit breaker stops hammering a dead shard, fed
//     by both user traffic and the prober;
//   - a failed or shed forward (transport error, 5xx, 429, injected
//     router.forward fault) reroutes to the next distinct backend on the
//     ring, in ring order, so a killed shard's keyspace redistributes
//     deterministically;
//   - a forward slower than the adaptive hedge delay races the next
//     candidate and takes the first success, bounding churn latency;
//     hedges spend a token-bucket retry budget so churn can never turn
//     into a retry storm;
//   - a draining backend stops owning new route keys but keeps serving
//     its pinned /v1/resolve lineages until it is removed;
//   - when every backend is down the router answers locally with the
//     trivially sound Ω-degraded solution (pip.AnalyzeDegraded) rather
//     than dropping the request — a sound over-approximation beats an
//     error, exactly as inside the solver.
//
// Incremental lineages (/v1/resolve handles) are pinned: a handle's
// session state lives on the backend that created it, so the router
// remembers handle→backend and routes resubmissions there regardless of
// the module hash. A removed or lost backend loses its lineages —
// clients get 404 (or a local Ω answer if everything is down) and
// restart the lineage, which is the same contract a single pipserve
// gives after an eviction.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Backends are the pipserve base URLs to shard across at startup,
	// e.g. "http://127.0.0.1:7071". At least one is required; the set
	// can change at runtime via AddBackend/DrainBackend/RemoveBackend,
	// SetBackends, or POST /admin/backends.
	Backends []string
	// Breaker configures the per-backend circuit breaker (zero value:
	// conservative defaults, like the Server's).
	Breaker BreakerOptions
	// Probe configures the active health prober (zero value: enabled
	// with conservative defaults; set Disabled to turn it off).
	Probe ProbeOptions
	// Hedge configures hedged forwards (zero value: enabled with
	// conservative defaults; set Disabled to turn them off).
	Hedge HedgeOptions
	// LogWriter receives structured request logs; nil disables logging.
	LogWriter io.Writer
	// FlightDir, when non-empty, writes each anomaly dump to a
	// timestamped JSON file under it.
	FlightDir string
}

// Router constants: virtual nodes per backend on the hash ring (more
// smooth the keyspace split at the cost of a larger ring) and the
// timeout of one forward.
const (
	DefaultRouterReplicas = 64
	DefaultForwardTimeout = 2 * time.Minute
)

// routerBackend is one shard: its base URL, its breaker, its membership
// state, and counters. The object survives ring rebuilds — a backend
// that changes state keeps its breaker history and counters.
type routerBackend struct {
	url       string
	breaker   *breaker
	draining  atomic.Bool  // true: keeps pinned lineages, owns no new keys
	forwarded atomic.Int64 // successful forwards
	failures  atomic.Int64 // failed attempts (transport, 5xx, 429, fault)

	probes     atomic.Int64 // health probes sent
	probeFails atomic.Int64 // health probes failed
	// Consecutive-streak counters, owned by the prober goroutine.
	consecFail int
	consecOK   int
}

func (b *routerBackend) state() string {
	if b.draining.Load() {
		return "draining"
	}
	return "active"
}

// ringPoint is one virtual node: hash position → backend index into the
// owning snapshot's backends slice.
type ringPoint struct {
	hash uint64
	idx  int
}

// ringSnapshot is one immutable generation of cluster membership. The
// route path loads it once per request and never sees it change
// (RCU-style): membership mutations build a whole new snapshot and swap
// the pointer, so an in-flight request keeps the candidate list it
// started with while new requests see the new ring.
type ringSnapshot struct {
	gen      uint64
	backends []*routerBackend // resident set, sorted by URL (incl. draining)
	ring     []ringPoint      // vnodes of active backends only, sorted by hash
	live     int              // distinct active backends on the ring
}

// Router is the sharding reverse proxy. Create with NewRouter, expose
// via Handler, stop background work with Close.
type Router struct {
	shell
	opts      RouterOptions
	probeOpts ProbeOptions
	client    *http.Client
	hedge     *hedgePolicy

	// snap is the current membership generation; memberMu serializes
	// mutations (never taken on the route path).
	snap     atomic.Pointer[ringSnapshot]
	memberMu sync.Mutex

	// handles pins resolve lineages to the backend holding their session
	// state. Bounded by dropping arbitrary entries past routerMaxHandles:
	// a dropped pin only costs the client a 404 + lineage restart. Pins
	// to a removed backend are purged with it.
	mu      sync.Mutex
	handles map[string]*routerBackend

	draining  atomic.Bool
	probeStop chan struct{}
	closeOnce sync.Once

	forwarded     atomic.Int64 // requests answered by a backend
	rerouted      atomic.Int64 // failed attempts that moved to the next backend
	degradedLocal atomic.Int64 // requests answered by the local Ω fallback
	badRequests   atomic.Int64

	hedges      atomic.Int64 // hedge attempts launched
	hedgeWins   atomic.Int64 // requests answered by a hedge attempt
	hedgeDenied atomic.Int64 // hedges refused by an empty token bucket

	probesTotal     atomic.Int64
	probeFailsTotal atomic.Int64

	addsTotal    atomic.Int64
	drainsTotal  atomic.Int64
	removesTotal atomic.Int64
	reloadsTotal atomic.Int64
}

// routerMaxHandles bounds the handle→backend pin table.
const routerMaxHandles = 4096

// Membership-operation errors, distinguished so the admin surface can
// answer 409 vs 404.
var (
	errBackendExists  = errors.New("backend already present")
	errBackendUnknown = errors.New("backend not present")
)

// NewRouter builds the shard router. It panics when no backends are
// given — a router born with nothing behind it is a configuration
// error, not a runtime condition to degrade around (runtime removal
// down to zero is allowed and degrades soundly).
func NewRouter(opts RouterOptions) *Router {
	if len(opts.Backends) == 0 {
		panic("serve.NewRouter: no backends")
	}
	rt := &Router{
		opts:      opts,
		probeOpts: opts.Probe.withDefaults(),
		client:    &http.Client{Timeout: DefaultForwardTimeout},
		hedge:     newHedgePolicy(opts.Hedge),
		handles:   make(map[string]*routerBackend),
		probeStop: make(chan struct{}),
	}
	// The router's own trace index is merged with the backends' spans by
	// GET /debug/trace; its flight recorder sees per-backend breaker
	// transitions, probe failures, membership changes, and local Ω
	// degradations. Every trigger site fires after the owning mutex is
	// released, since a dump scrapes writeProm.
	rt.shell.init("pip-router", opts.LogWriter, opts.FlightDir, nil, rt.writeProm)
	backends := make([]*routerBackend, 0, len(opts.Backends))
	for _, u := range opts.Backends {
		nu, err := normalizeBackendURL(u)
		if err != nil {
			panic("serve.NewRouter: " + err.Error())
		}
		backends = append(backends, rt.newBackend(nu))
	}
	rt.snap.Store(buildSnapshot(1, backends))

	rt.mux.HandleFunc("POST /v1/solve", rt.traced(rt.route))
	rt.mux.HandleFunc("POST /v1/alias", rt.traced(rt.route))
	rt.mux.HandleFunc("POST /v1/resolve", rt.traced(rt.route))
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("POST /admin/backends", rt.handleAdminBackends)
	rt.mux.HandleFunc("GET /debug/ring", rt.handleRing)
	rt.mux.HandleFunc("GET /debug/trace", rt.handleTrace)
	if !rt.probeOpts.Disabled {
		go rt.proberLoop()
	}
	return rt
}

// newBackend wires one shard's breaker into the flight recorder.
func (rt *Router) newBackend(u string) *routerBackend {
	b := &routerBackend{url: u, breaker: newBreaker(rt.opts.Breaker)}
	rt.watchBreaker(b.breaker, "backend "+u)
	return b
}

// normalizeBackendURL validates a backend base URL and strips trailing
// slashes (paths are appended verbatim on forward).
func normalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("backend %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("backend %q: need http(s)://host[:port]", raw)
	}
	return raw, nil
}

// buildSnapshot constructs one immutable membership generation: the
// resident set sorted by URL (so the same membership always yields the
// same backend order and therefore the same ring, whatever sequence of
// adds and removes produced it) and the hash ring over active backends.
func buildSnapshot(gen uint64, backends []*routerBackend) *ringSnapshot {
	sort.Slice(backends, func(a, b int) bool { return backends[a].url < backends[b].url })
	s := &ringSnapshot{gen: gen, backends: backends}
	for i, b := range backends {
		if b.draining.Load() {
			continue
		}
		s.live++
		for v := 0; v < DefaultRouterReplicas; v++ {
			h := fnv.New64a()
			io.WriteString(h, b.url)
			h.Write([]byte{'#', byte(v), byte(v >> 8)})
			s.ring = append(s.ring, ringPoint{hash: h.Sum64(), idx: i})
		}
	}
	sort.Slice(s.ring, func(a, b int) bool {
		if s.ring[a].hash != s.ring[b].hash {
			return s.ring[a].hash < s.ring[b].hash
		}
		return s.ring[a].idx < s.ring[b].idx
	})
	return s
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Shutdown stops admitting new requests. Forwards already in flight run
// to completion on their own goroutines (the HTTP server's), so callers
// drain by closing the listener as usual.
func (rt *Router) Shutdown() { rt.draining.Store(true) }

// Close stops the health prober (idempotent). It does not drain; call
// Shutdown for that.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
}

// --- membership ---

// publishLocked installs a new membership generation. Called with
// memberMu held; returns the new snapshot for logging/triggers (which
// must fire after the caller releases memberMu — the flight dump path
// scrapes metrics).
func (rt *Router) publishLocked(backends []*routerBackend) *ringSnapshot {
	next := buildSnapshot(rt.snap.Load().gen+1, backends)
	rt.snap.Store(next)
	return next
}

// membershipChanged fires the shared logging + flight-recorder trigger
// for a published membership change. Never called under memberMu/mu.
func (rt *Router) membershipChanged(op, detail string, gen uint64) {
	rt.log.Info("membership change", "op", op, "detail", detail, "ring_generation", gen)
	rt.flight.Trigger(flightTriggerMembership, fmt.Sprintf("%s %s (gen %d)", op, detail, gen))
}

// AddBackend joins a backend to the ring. New route keys start landing
// on it with the next snapshot; in-flight requests are untouched.
func (rt *Router) AddBackend(raw string) error {
	nu, err := normalizeBackendURL(raw)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	cur := rt.snap.Load()
	for _, b := range cur.backends {
		if b.url == nu {
			rt.memberMu.Unlock()
			return fmt.Errorf("%s: %w", nu, errBackendExists)
		}
	}
	backends := append(append(make([]*routerBackend, 0, len(cur.backends)+1), cur.backends...), rt.newBackend(nu))
	next := rt.publishLocked(backends)
	rt.memberMu.Unlock()
	rt.addsTotal.Add(1)
	rt.membershipChanged("add", nu, next.gen)
	return nil
}

// DrainBackend marks a backend draining: it leaves the hash ring (no
// new route keys) but stays resident, so pinned /v1/resolve lineages
// keep landing on it until it is removed. Idempotent.
func (rt *Router) DrainBackend(raw string) error {
	nu, err := normalizeBackendURL(raw)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	cur := rt.snap.Load()
	var target *routerBackend
	for _, b := range cur.backends {
		if b.url == nu {
			target = b
			break
		}
	}
	if target == nil {
		rt.memberMu.Unlock()
		return fmt.Errorf("%s: %w", nu, errBackendUnknown)
	}
	if target.draining.Load() {
		rt.memberMu.Unlock()
		return nil
	}
	target.draining.Store(true)
	next := rt.publishLocked(append(make([]*routerBackend, 0, len(cur.backends)), cur.backends...))
	rt.memberMu.Unlock()
	rt.drainsTotal.Add(1)
	rt.membershipChanged("drain", nu, next.gen)
	return nil
}

// RemoveBackend takes a backend out of the cluster entirely. Its pinned
// lineages are purged — clients holding their handles get the standard
// 404-restart protocol from whichever backend now owns the key.
// Removing the last backend is allowed: the router then answers every
// request with the local sound Ω degradation until a backend joins.
func (rt *Router) RemoveBackend(raw string) error {
	nu, err := normalizeBackendURL(raw)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	cur := rt.snap.Load()
	var removed *routerBackend
	backends := make([]*routerBackend, 0, len(cur.backends))
	for _, b := range cur.backends {
		if b.url == nu {
			removed = b
			continue
		}
		backends = append(backends, b)
	}
	if removed == nil {
		rt.memberMu.Unlock()
		return fmt.Errorf("%s: %w", nu, errBackendUnknown)
	}
	next := rt.publishLocked(backends)
	rt.memberMu.Unlock()
	rt.purgePins(removed)
	rt.removesTotal.Add(1)
	rt.membershipChanged("remove", nu, next.gen)
	return nil
}

// SetBackends reconciles membership against a desired URL set (the
// -backends-file SIGHUP reload): URLs not yet resident join, resident
// backends missing from the set are removed (pins purged), and
// survivors keep their breaker history, counters, and drain state. The
// whole diff lands as one ring generation. An empty set is refused —
// a truncated backends file must not empty the cluster.
func (rt *Router) SetBackends(urls []string) (added, removed []string, err error) {
	desired := make([]string, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		nu, err := normalizeBackendURL(raw)
		if err != nil {
			return nil, nil, err
		}
		if !seen[nu] {
			seen[nu] = true
			desired = append(desired, nu)
		}
	}
	if len(desired) == 0 {
		return nil, nil, errors.New("refusing to apply an empty backend set")
	}
	rt.memberMu.Lock()
	cur := rt.snap.Load()
	resident := make(map[string]*routerBackend, len(cur.backends))
	for _, b := range cur.backends {
		resident[b.url] = b
	}
	backends := make([]*routerBackend, 0, len(desired))
	for _, nu := range desired {
		if b, ok := resident[nu]; ok {
			backends = append(backends, b)
			delete(resident, nu)
			continue
		}
		backends = append(backends, rt.newBackend(nu))
		added = append(added, nu)
	}
	var purge []*routerBackend
	for nu, b := range resident {
		removed = append(removed, nu)
		purge = append(purge, b)
	}
	sort.Strings(removed)
	if len(added) == 0 && len(removed) == 0 {
		rt.memberMu.Unlock()
		return nil, nil, nil
	}
	next := rt.publishLocked(backends)
	rt.memberMu.Unlock()
	for _, b := range purge {
		rt.purgePins(b)
	}
	rt.reloadsTotal.Add(1)
	rt.membershipChanged("reload", fmt.Sprintf("+%d -%d (%d resident)", len(added), len(removed), len(next.backends)), next.gen)
	return added, removed, nil
}

// purgePins drops every lineage pin pointing at a removed backend.
func (rt *Router) purgePins(b *routerBackend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for h, pinned := range rt.handles {
		if pinned == b {
			delete(rt.handles, h)
		}
	}
}

// --- routing ---

// routeProbe is the subset of an analysis request the router needs: the
// module content and configuration feed the hash, the handle pins
// lineages. Unknown fields (queries, pairs, ...) pass through untouched.
type routeProbe struct {
	MIR    string `json:"mir"`
	C      string `json:"c"`
	Config string `json:"config"`
	Handle string `json:"handle"`
}

// routeKey hashes what determines the answer — module content and
// configuration — so equal modules always map to the same shard and hit
// its cache. The request name is deliberately excluded: renaming a file
// must not move (and re-solve) its module.
func routeKey(p *routeProbe, query string) uint64 {
	h := fnv.New64a()
	for _, s := range []string{p.MIR, "\x00", p.C, "\x00", p.Config, "\x00", query} {
		io.WriteString(h, s)
	}
	return h.Sum64()
}

// candidates appends every active backend in ring order starting at the
// key's position to out — the first entry is the owner, the rest the
// failover/hedge order. Deterministic: the same key on the same
// snapshot always yields the same sequence. Allocation-free when out
// has capacity: dedup uses a stack bitmask (a linear scan of out for
// the >64-backend tail), not a per-request map.
func (s *ringSnapshot) candidates(key uint64, out []*routerBackend) []*routerBackend {
	if len(s.ring) == 0 {
		return out
	}
	start := sort.Search(len(s.ring), func(i int) bool { return s.ring[i].hash >= key })
	var seen uint64
	n := 0
	for i := 0; i < len(s.ring) && n < s.live; i++ {
		p := s.ring[(start+i)%len(s.ring)]
		if p.idx < 64 {
			bit := uint64(1) << p.idx
			if seen&bit != 0 {
				continue
			}
			seen |= bit
		} else {
			dup := false
			for _, b := range out {
				if b == s.backends[p.idx] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		out = append(out, s.backends[p.idx])
		n++
	}
	return out
}

// route is the forwarding pipeline shared by all three analysis
// endpoints: probe the body, load the current ring snapshot, pick the
// candidate order, forward with failover and hedging, fall back to the
// local Ω answer when every shard is down.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
		rt.writeError(w, http.StatusServiceUnavailable, "router is shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, DefaultMaxBodyBytes))
	if err != nil {
		rt.badRequests.Add(1)
		rt.writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	var probe routeProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		rt.badRequests.Add(1)
		rt.writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}

	// Candidate order: the handle's pinned backend first for lineages
	// (even one draining — that is what draining means), then (or
	// otherwise) consistent-hash ring order over the loaded snapshot.
	snap := rt.snap.Load()
	var cbuf [8]*routerBackend
	cands := snap.candidates(routeKey(&probe, r.URL.Query().Get("config")), cbuf[:0])
	if probe.Handle != "" {
		rt.mu.Lock()
		pin := rt.handles[probe.Handle]
		rt.mu.Unlock()
		if pin != nil {
			reordered := append(make([]*routerBackend, 0, len(cands)+1), pin)
			for _, c := range cands {
				if c != pin {
					reordered = append(reordered, c)
				}
			}
			cands = reordered
		}
	}

	// Hedging is off for /v1/resolve: racing two backends would create
	// two lineages and pin only one, leaking session state on the loser.
	if rt.forwardRace(w, r, cands, body, r.URL.Path != "/v1/resolve") {
		return
	}

	// Every shard is unreachable, shedding, or failing: answer locally
	// with the sound Ω degradation rather than dropping the request.
	rt.degradeLocally(w, r, body)
}

// fwdOutcome is one attempt's result, produced on the attempt's own
// goroutine with its per-backend accounting already applied.
type fwdOutcome struct {
	b           *routerBackend
	status      int
	contentType string
	body        []byte
	err         error
	failed      bool // transport error, 5xx, or 429 (and not canceled)
	canceled    bool // the race was decided before this attempt finished
	hedge       bool
}

// forwardRace drives one request across the candidate list: one attempt
// at a time, failing over on error/5xx/429, plus — when the in-flight
// attempt is slower than the adaptive hedge delay and the retry budget
// allows — a hedge racing the next candidate. First success wins and is
// written to the client; false means every candidate was exhausted.
func (rt *Router) forwardRace(w http.ResponseWriter, r *http.Request, cands []*routerBackend, body []byte, allowHedge bool) bool {
	if len(cands) == 0 {
		return false
	}
	id := requestIDFrom(r.Context())
	traceID := traceIDFrom(r.Context())
	tc := reqTraceFrom(r.Context())
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel() // losers are aborted once a winner is written
	results := make(chan fwdOutcome, len(cands))
	next, inflight, attempts := 0, 0, 0

	launch := func(hedge bool) bool {
		for next < len(cands) {
			b := cands[next]
			next++
			if ok, _ := b.breaker.allow(); !ok {
				if tc != nil {
					tc.lane.Event("breaker-skip", obs.S("backend", b.url))
				}
				continue // open breaker: this shard is known-dead, skip it
			}
			attempt := attempts
			attempts++
			var span obs.Span
			if tc != nil {
				args := []obs.KV{obs.S("backend", b.url), obs.N("attempt", int64(attempt))}
				if hedge {
					args = append(args, obs.S("hedge", "true"))
				}
				span = tc.lane.Begin("forward", args...)
			}
			inflight++
			go func(b *routerBackend, span obs.Span) {
				out := rt.attemptOne(ctx, r, b, body, id, traceID, attempt, hedge)
				switch {
				case out.canceled:
					span.End(obs.S("outcome", "canceled"))
				case out.err != nil:
					span.End(obs.S("error", out.err.Error()))
				case out.failed:
					span.End(obs.N("status", int64(out.status)), obs.S("outcome", "failover"))
				default:
					span.End(obs.N("status", int64(out.status)))
				}
				results <- out
			}(b, span)
			return true
		}
		return false
	}

	if !launch(false) {
		return false
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	if allowHedge && !rt.hedge.opts.Disabled && len(cands) > 1 {
		timer = time.NewTimer(rt.hedge.delay())
		defer timer.Stop()
		timerC = timer.C
	}
	for inflight > 0 {
		select {
		case out := <-results:
			inflight--
			if out.canceled {
				continue
			}
			if !out.failed {
				rt.forwarded.Add(1)
				if out.hedge {
					rt.hedgeWins.Add(1)
				}
				if r.URL.Path == "/v1/resolve" && out.status == http.StatusOK {
					rt.pinHandle(out.body, out.b)
				}
				if out.contentType != "" {
					w.Header().Set("Content-Type", out.contentType)
				}
				w.WriteHeader(out.status)
				w.Write(out.body)
				return true
			}
			rt.log.Info("forward failed", "backend", out.b.url, "err", out.err,
				"status", out.status, "request_id", id)
			// A failure moves on: either a replacement launches or a
			// hedge already covers the key.
			if launch(false) || inflight > 0 {
				rt.rerouted.Add(1)
			}
		case <-timerC:
			if !rt.hedge.take() {
				rt.hedgeDenied.Add(1)
				timerC = nil // budget empty: no more hedging this request
				continue
			}
			if !launch(true) {
				rt.hedge.refund()
				timerC = nil
				continue
			}
			rt.hedges.Add(1)
			if tc != nil {
				tc.lane.Event("hedge")
			}
			timer.Reset(rt.hedge.delay())
		}
	}
	return false
}

// attemptOne performs one backend attempt end to end — forward, read,
// classify — and applies the per-backend accounting on its own
// goroutine, win or lose, so a failing backend masked by hedge wins
// still trips its breaker. A canceled attempt (the race was decided)
// blames nobody.
func (rt *Router) attemptOne(ctx context.Context, r *http.Request, b *routerBackend, body []byte, id, traceID string, attempt int, hedge bool) fwdOutcome {
	out := fwdOutcome{b: b, hedge: hedge}
	start := time.Now()
	resp, err := rt.forward(ctx, r, b, body, id, traceID, attempt)
	if err != nil {
		out.err = err
	} else {
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBodyBytes))
		resp.Body.Close()
		if rerr != nil {
			out.err = rerr
		} else {
			out.status = resp.StatusCode
			out.contentType = resp.Header.Get("Content-Type")
			out.body = respBody
		}
	}
	if out.err != nil && ctx.Err() != nil {
		out.canceled = true
		return out
	}
	if out.err != nil || out.status >= 500 || out.status == http.StatusTooManyRequests {
		// A shed (429/503) or failed (5xx) backend answer is this
		// shard's problem, not the client's: record and fail over.
		out.failed = true
		b.failures.Add(1)
		b.breaker.record(true)
		return out
	}
	b.breaker.record(false)
	b.forwarded.Add(1)
	rt.hedge.observe(time.Since(start))
	return out
}

// forward performs one backend attempt, preserving the method, path,
// query string, body, content type, request ID, and trace context: the
// backend joins the router's trace ID (so the cluster-wide merge finds
// its spans under the same key) with a span-parent naming this forward
// attempt. The injected router.forward fault fails the attempt before
// any bytes move, exactly like a refused connection.
func (rt *Router) forward(ctx context.Context, r *http.Request, b *routerBackend, body []byte, id, traceID string, attempt int) (*http.Response, error) {
	if err := faults.Inject(faults.RouterForward); err != nil {
		return nil, err
	}
	u := b.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(requestIDHeader, id)
	if traceID != "" {
		req.Header.Set(traceIDHeader, traceID)
		req.Header.Set(traceParentHeader, "router:"+id+":fwd"+strconv.Itoa(attempt))
	}
	return rt.client.Do(req)
}

// pinHandle records which backend owns a lineage, from a successful
// resolve response.
func (rt *Router) pinHandle(respBody []byte, b *routerBackend) {
	var rr struct {
		Handle string `json:"handle"`
	}
	if json.Unmarshal(respBody, &rr) != nil || rr.Handle == "" {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.handles) >= routerMaxHandles {
		for h := range rt.handles { // drop an arbitrary pin; cost: one 404
			delete(rt.handles, h)
			break
		}
	}
	rt.handles[rr.Handle] = b
}

// degradeLocally answers the request with pip.AnalyzeDegraded: every
// pointer points to external memory, everything escapes. Sound for any
// program the backends would have analyzed, and infinitely better than
// a drop — the client can distinguish it by the degraded flag and retry
// for an exact answer later. The body goes through the server's own
// decoding, validation and rendering, so it gets the status a live
// backend would give it, and only a valid request counts as a local
// degradation.
func (rt *Router) degradeLocally(w http.ResponseWriter, r *http.Request, body []byte) {
	r.Body = io.NopCloser(bytes.NewReader(body))
	ow := outcomeOf(w)
	switch r.URL.Path {
	case "/v1/alias":
		rt.answerAlias(ow, r, rt.analyzeLocally)
	case "/v1/resolve":
		rt.resolveLocally(ow, r)
	default: // /v1/solve
		rt.answerSolve(ow, r, rt.analyzeLocally)
	}
	if ow.status >= 400 {
		rt.badRequests.Add(1)
	}
}

// analyzeLocally is the all-shards-down analyzer: the server's checks of
// the configuration, the body's budget and the module, then the Ω
// solution instead of a solve. Query budgets, timeouts and ?ptr= roots
// only narrow a solve, so they are not checked here.
func (rt *Router) analyzeLocally(r *http.Request, req *moduleRequest) (pip.BatchResult, pip.Config, error) {
	cfg, _, err := requestConfig(r, req, pip.DefaultConfig())
	if err == nil {
		_, err = requestBudget(pip.Budget{}, req.Budget)
	}
	var m *pip.Module
	if err == nil {
		m, err = parseModule(req)
	}
	if err != nil {
		return pip.BatchResult{}, cfg, err
	}
	rt.degradedLocal.Add(1)
	if tc := reqTraceFrom(r.Context()); tc != nil {
		tc.lane.Event("degraded-local")
	}
	rt.log.Info("all backends down, served local degraded answer",
		"path", r.URL.Path, "request_id", requestIDFrom(r.Context()))
	return pip.BatchResult{Result: pip.AnalyzeDegraded(m), Degraded: true}, cfg, nil
}

// resolveLocally answers /v1/resolve with every shard down. No backend
// means no session state, so the answer carries no handle and the
// client restarts the lineage when shards return.
func (rt *Router) resolveLocally(w http.ResponseWriter, r *http.Request) {
	var req resolveRequest
	if err := decode(r, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, cfg, err := rt.analyzeLocally(r, &req.moduleRequest)
	if err != nil {
		rt.writeAnalyzeError(w, err)
		return
	}
	markDegraded(w)
	resp := resolveResponse{Name: req.Name, Config: cfg.String(), Degraded: true,
		Escaped: res.Result.ExternallyAccessible()}
	fillPointsTo(&resp.PointsTo, &resp.Dump, res.Result, req.Queries)
	rt.writeJSON(w, http.StatusOK, resp)
}

// --- admin & introspection ---

// adminBackendsRequest is the POST /admin/backends body.
type adminBackendsRequest struct {
	// Op is "add", "drain", or "remove".
	Op string `json:"op"`
	// Backend is the shard base URL the op applies to.
	Backend string `json:"backend"`
}

// handleAdminBackends mutates cluster membership at runtime. Answers
// the post-change ring dump on success; 400 for malformed requests,
// 404 for ops on absent backends, 409 for adding a resident one.
func (rt *Router) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<16))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	var req adminBackendsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	switch req.Op {
	case "add":
		err = rt.AddBackend(req.Backend)
	case "drain":
		err = rt.DrainBackend(req.Backend)
	case "remove":
		err = rt.RemoveBackend(req.Backend)
	default:
		rt.writeError(w, http.StatusBadRequest, `"op" must be "add", "drain", or "remove"`)
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errBackendExists):
			status = http.StatusConflict
		case errors.Is(err, errBackendUnknown):
			status = http.StatusNotFound
		}
		rt.writeError(w, status, err.Error())
		return
	}
	rt.writeJSON(w, http.StatusOK, rt.ringDump())
}

// ringBackendInfo is one backend's row in the GET /debug/ring dump.
type ringBackendInfo struct {
	URL     string `json:"url"`
	State   string `json:"state"`   // "active" | "draining"
	Breaker string `json:"breaker"` // "closed" | "open" | "half-open"
	VNodes  int    `json:"vnodes"`
	// Ownership is this backend's fraction of the keyspace (summed vnode
	// arc lengths); 0 for draining backends.
	Ownership     float64 `json:"ownership"`
	Forwarded     int64   `json:"forwarded"`
	Failures      int64   `json:"failures"`
	ProbeFailures int64   `json:"probe_failures"`
}

// ringResponse is the GET /debug/ring body: the current membership
// generation and each backend's ownership of the keyspace.
type ringResponse struct {
	Generation uint64            `json:"generation"`
	RingPoints int               `json:"ring_points"`
	Backends   []ringBackendInfo `json:"backends"`
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, rt.ringDump())
}

// ringDump renders the current snapshot's ownership: per-backend vnode
// counts and keyspace fractions computed from the vnode arc lengths
// (point i owns the arc from its predecessor, wrapping at the top).
func (rt *Router) ringDump() ringResponse {
	snap := rt.snap.Load()
	own := make([]float64, len(snap.backends))
	vnodes := make([]int, len(snap.backends))
	if n := len(snap.ring); n == 1 {
		own[snap.ring[0].idx] = 1
		vnodes[snap.ring[0].idx] = 1
	} else if n > 1 {
		const keyspace = float64(1<<63) * 2 // 2^64
		for i, p := range snap.ring {
			prev := snap.ring[(i+n-1)%n].hash
			arc := p.hash - prev // uint64 wrap-around is the wrap arc
			own[p.idx] += float64(arc) / keyspace
			vnodes[p.idx]++
		}
	}
	resp := ringResponse{Generation: snap.gen, RingPoints: len(snap.ring)}
	for i, b := range snap.backends {
		st, _ := b.breaker.snapshot()
		resp.Backends = append(resp.Backends, ringBackendInfo{
			URL:           b.url,
			State:         b.state(),
			Breaker:       st.String(),
			VNodes:        vnodes[i],
			Ownership:     own[i],
			Forwarded:     b.forwarded.Load(),
			Failures:      b.failures.Load(),
			ProbeFailures: b.probeFails.Load(),
		})
	}
	return resp
}

// routerHealthz is the router's /healthz body.
type routerHealthz struct {
	// Status is "ok", "degraded" (some backend breakers open — still
	// HTTP 200, the router still answers soundly), or "draining" (503).
	Status   string `json:"status"`
	Backends int    `json:"backends"`
	// Open counts backends with an open breaker (known-dead shards).
	Open int `json:"open"`
	// Draining counts backends serving only pinned lineages.
	Draining   int    `json:"draining"`
	Generation uint64 `json:"generation"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := rt.snap.Load()
	resp := routerHealthz{Status: "ok", Backends: len(snap.backends), Generation: snap.gen}
	for _, b := range snap.backends {
		if st, _ := b.breaker.snapshot(); st == breakerOpen {
			resp.Open++
		}
		if b.draining.Load() {
			resp.Draining++
		}
	}
	status := http.StatusOK
	if resp.Open > 0 {
		// Still 200 — every admitted request gets a sound answer — but
		// external load balancers can tell a fully healthy router from
		// one surviving on reroutes or Ω.
		resp.Status = "degraded"
	}
	if rt.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, status, resp)
}

// handleTrace serves GET /debug/trace?id= on the router: the router's
// own spans for that trace ID merged with every backend's spans for the
// same ID (fetched live over their /debug/trace endpoints) into one
// Chrome trace_event timeline — the cluster-wide view of the request.
// Backends that never saw the trace (404) or are unreachable contribute
// nothing; 404 only when no process has spans for the ID.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := sanitizeHeaderID(r.URL.Query().Get("id"))
	if id == "" {
		rt.writeError(w, http.StatusBadRequest, "missing or invalid ?id= trace ID")
		return
	}
	var parts []obs.TracePart
	if tr := rt.traces.get(id); tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err == nil {
			parts = append(parts, obs.TracePart{Process: "router", Data: buf.Bytes()})
		}
	}
	for i, b := range rt.snap.Load().backends {
		data, err := rt.fetchBackendTrace(r, b, id)
		if err != nil {
			rt.log.Info("backend trace fetch failed", "backend", b.url, "err", err)
			continue
		}
		if data != nil {
			parts = append(parts, obs.TracePart{Process: fmt.Sprintf("backend-%d", i), Data: data})
		}
	}
	if len(parts) == 0 {
		rt.writeError(w, http.StatusNotFound, "unknown trace ID (evicted or never seen)")
		return
	}
	merged, err := obs.MergeChrome(parts)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "merge: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(merged)
}

// fetchBackendTrace asks one backend for its spans under a trace ID.
// A 404 answer (the backend never saw the trace) returns (nil, nil).
func (rt *Router) fetchBackendTrace(r *http.Request, b *routerBackend, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		b.url+"/debug/trace?id="+url.QueryEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBodyBytes))
}

// writeProm renders the router's Prometheus exposition: GET /metrics and
// the scrape every flight dump embeds.
func (rt *Router) writeProm(w io.Writer) {
	snap := rt.snap.Load()
	p := obs.NewPromWriter(w)
	p.Counter("pip_router_forwarded_total", "Requests answered by a backend shard.", float64(rt.forwarded.Load()))
	p.Counter("pip_router_rerouted_total", "Failed-over forward attempts (dead, shedding, or faulted shards).", float64(rt.rerouted.Load()))
	p.Counter("pip_router_degraded_local_total", "Requests answered by the local sound Ω fallback with every shard down.", float64(rt.degradedLocal.Load()))
	p.Counter("pip_router_bad_requests_total", "Requests refused with a 4xx by the router itself.", float64(rt.badRequests.Load()))
	fw := make(map[string]float64, len(snap.backends))
	fl := make(map[string]float64, len(snap.backends))
	open := make(map[string]float64, len(snap.backends))
	pf := make(map[string]float64, len(snap.backends))
	draining := 0
	for _, b := range snap.backends {
		fw[b.url] = float64(b.forwarded.Load())
		fl[b.url] = float64(b.failures.Load())
		st, _ := b.breaker.snapshot()
		open[b.url] = float64(st)
		pf[b.url] = float64(b.probeFails.Load())
		if b.draining.Load() {
			draining++
		}
	}
	p.CounterVec("pip_router_backend_forwarded_total", "Successful forwards per backend.", "backend", fw)
	p.CounterVec("pip_router_backend_failures_total", "Failed forward attempts per backend.", "backend", fl)
	p.GaugeVec("pip_router_backend_state", "Per-backend breaker state: 0 closed, 1 open, 2 half-open.", "backend", open)
	rt.mu.Lock()
	pins := len(rt.handles)
	rt.mu.Unlock()
	p.Gauge("pip_router_handle_pins", "Resolve lineages pinned to their owning backend.", float64(pins))

	// Dynamic membership: the ring generation is the monotone clock of
	// cluster changes; the change counters say what moved it.
	p.Gauge("pip_router_ring_generation", "Membership generation of the current ring snapshot (monotone).", float64(snap.gen))
	p.Gauge("pip_router_backends", "Backends resident in the current snapshot (active + draining).", float64(len(snap.backends)))
	p.Gauge("pip_router_backends_draining", "Backends draining: serving pinned lineages, owning no new keys.", float64(draining))
	p.CounterVec("pip_router_membership_changes_total", "Membership changes applied, by operation.", "op", map[string]float64{
		"add":    float64(rt.addsTotal.Load()),
		"drain":  float64(rt.drainsTotal.Load()),
		"remove": float64(rt.removesTotal.Load()),
		"reload": float64(rt.reloadsTotal.Load()),
	})

	// Active health probing and hedged forwards.
	p.Counter("pip_router_probes_total", "Health probes sent across all backends.", float64(rt.probesTotal.Load()))
	p.Counter("pip_router_probe_failures_total", "Health probes that failed (error, timeout, or non-200).", float64(rt.probeFailsTotal.Load()))
	p.CounterVec("pip_router_backend_probe_failures_total", "Failed health probes per backend.", "backend", pf)
	p.Counter("pip_router_hedges_total", "Hedged forward attempts launched.", float64(rt.hedges.Load()))
	p.Counter("pip_router_hedge_wins_total", "Requests answered by a hedge attempt.", float64(rt.hedgeWins.Load()))
	p.Counter("pip_router_hedge_denied_total", "Hedge attempts refused by an exhausted retry budget.", float64(rt.hedgeDenied.Load()))
	p.Gauge("pip_router_hedge_budget_tokens", "Hedge retry-budget tokens currently available.", rt.hedge.level())

	// Distributed tracing and the anomaly flight recorder.
	rt.endProm(p, 0, "Trace records dropped by saturated per-trace rings.")
}
