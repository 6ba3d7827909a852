// Package serve is the long-running analysis service: an HTTP/JSON front
// end over a shared pip.Engine. Modules (MIR or mini-C) arrive one request
// at a time — the incomplete-program setting of the paper, where results
// must be usable before the whole program exists — and points-to/alias
// answers go back, sound no matter what the rest of the program turns out
// to be.
//
// The server is built around the lifecycle properties a daemon needs that
// a batch run does not:
//
//   - admission control: a bounded queue in front of a bounded number of
//     concurrent solves; requests beyond both bounds are rejected with
//     429 instead of piling up goroutines without limit;
//   - per-request budgets: a ?budget= parameter or request deadline maps
//     onto core.Budget, so an overloaded or slow solve returns the sound
//     Ω-degraded solution inside its deadline instead of timing out;
//   - a bounded solution cache: the shared engine's LRU keeps the hot set
//     resident and evicts the tail, so memory stays bounded under an
//     unbounded stream of distinct modules;
//   - graceful shutdown: Shutdown stops admitting work and drains every
//     in-flight solve before returning, so no accepted request is dropped;
//   - observability: /healthz for liveness/readiness, /metrics in
//     Prometheus text exposition format, optional /debug/pprof/* profiling
//     endpoints, per-request IDs (X-Request-Id, accepted or generated)
//     threaded through structured logs and solve traces, and latency
//     histograms split into queue wait and solve time.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
)

// Options configures a Server. The zero value serves with sane defaults.
type Options struct {
	// Config is the solver configuration used when a request names none.
	// The zero value means pip.DefaultConfig().
	Config pip.Config
	// HasConfig marks Config as explicitly set (the zero Config is a valid
	// configuration, EP+Naive, so "unset" needs a flag).
	HasConfig bool

	// Workers bounds the engine pool used for batch endpoints; <= 0 means
	// GOMAXPROCS.
	Workers int
	// CacheEntries bounds the solution cache; <= 0 means DefaultCacheEntries.
	// A long-running server must not run an unbounded cache.
	CacheEntries int

	// MaxConcurrent bounds solves running at once; <= 0 means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a solve slot; beyond it the
	// server answers 429. <= 0 means DefaultMaxQueue.
	MaxQueue int

	// MaxSessions bounds live incremental sessions (POST /v1/resolve
	// lineages). Each session holds the previous generation's constraint
	// summary and — on checkpointable configurations — the solver's
	// propagation state, so the count must stay bounded; beyond it the
	// least recently used session is evicted and its client's next resolve
	// starts a fresh lineage. <= 0 means DefaultMaxSessions.
	MaxSessions int

	// DefaultBudget bounds every solve that names no budget of its own.
	// Zero means unbudgeted (not recommended for exposed servers).
	DefaultBudget pip.Budget

	// LogWriter receives structured (JSON) request logs; nil disables
	// request logging.
	LogWriter io.Writer

	// Summaries are extra imported-function summaries applied to every
	// analyzed module.
	Summaries map[string]pip.Summary

	// Trace, when non-nil, records every solve's phase spans onto a
	// request-scoped lane of the trace, named by the request's ID — so a
	// captured trace file can be cross-referenced against request logs.
	Trace *pip.Trace

	// EnablePprof exposes net/http/pprof under /debug/pprof/*. Off by
	// default: the profiling endpoints reveal internals (heap contents,
	// goroutine stacks) that an exposed analysis service must not leak.
	EnablePprof bool

	// Breaker configures the circuit breaker in front of admission. The
	// zero value enables it with conservative defaults (see BreakerOptions);
	// set Disabled to turn it off.
	Breaker BreakerOptions

	// Retries re-solves transiently failed jobs (recovered panics,
	// injected faults) on the shared engine; 0 disables retry.
	Retries int
	// WatchdogFactor abandons solves stuck past WatchdogFactor× their wall
	// deadline and answers with the sound Ω-degradation; <= 0 disables.
	WatchdogFactor int
	// MemSoftLimit switches new solves to TightBudget while the heap
	// exceeds this many bytes; 0 disables the guard.
	MemSoftLimit uint64
	// TightBudget is the budget applied under memory pressure.
	TightBudget pip.Budget

	// FlightDir, when non-empty, writes each anomaly dump to a
	// timestamped JSON file under it. Empty keeps dumps in memory only.
	FlightDir string
	// OnFlightDump, when non-nil, runs after each anomaly dump is
	// recorded (pipserve wires it to checkpoint the -trace file, so a
	// crash shortly after an anomaly still leaves the tail on disk).
	OnFlightDump func(reason string)
}

// Defaults for the zero Options value. Request bodies are bounded by
// DefaultMaxBodyBytes on the server and the router alike.
const (
	DefaultCacheEntries  = 1024
	DefaultMaxConcurrent = 8
	DefaultMaxQueue      = 64
	DefaultMaxBodyBytes  = 8 << 20
	DefaultMaxSessions   = 64
)

// Server is the analysis service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	shell
	opts Options
	eng  *pip.Engine

	// queueSlots bounds admitted-but-not-yet-running requests, runSlots
	// bounds concurrent solves. Admission takes a queue slot without
	// blocking (full queue → 429), then blocks for a run slot.
	queueSlots chan struct{}
	runSlots   chan struct{}

	// inFlight tracks admitted requests for the shutdown drain. admitMu
	// orders admission against Shutdown: without it a request could pass
	// the draining check, lose the CPU while Shutdown flips the flag and
	// starts Wait() on a zero counter, and only then Add(1) — an admitted
	// request the drain never waits for (and a WaitGroup Add/Wait race).
	admitMu  sync.Mutex
	inFlight sync.WaitGroup
	draining atomic.Bool

	// Request counters, exported on /metrics.
	accepted    atomic.Int64 // admitted analysis requests
	rejected    atomic.Int64 // 429s from admission control
	badRequests atomic.Int64 // 4xx other than 429
	failures    atomic.Int64 // 5xx
	degraded    atomic.Int64 // solves that returned the Ω-degraded solution
	running     atomic.Int64 // solves currently holding a run slot
	queued      atomic.Int64 // requests currently waiting for a run slot

	// Latency histograms, exported on /metrics: queueWait is the time an
	// admitted request spends waiting for a run slot, solveLatency the
	// time inside the engine (generation + solve, or a cache hit). The
	// split is the useful one operationally — queue wait grows when the
	// server is saturated, solve latency when the modules get harder.
	queueWait    *obs.Histogram
	solveLatency *obs.Histogram

	// Incremental / demand request counters and the reused-constraints
	// histogram, exported on /metrics. The outcome split mirrors the three
	// incremental paths: resumed (checkpoint resume), reused (empty delta),
	// fallback (from-scratch re-solve).
	sessions     *sessionStore
	incrResumed  atomic.Int64
	incrReused   atomic.Int64
	incrFallback atomic.Int64
	incrReusedC  *obs.Histogram // reused constraints per incremental request
	demandReqs   atomic.Int64

	// incrFallbackBy counts fallbacks per incr.FallbackLabels entry.
	incrFallbackBy map[string]*atomic.Int64

	// breaker sheds load when the failure/degradation rate over recent
	// requests says the server is in distress; breakerRejected counts the
	// requests it turned away (they were never admitted).
	breaker         *breaker
	breakerRejected atomic.Int64
	panics          atomic.Int64 // handler panics converted to 500s

	// faultCounts tallies injected faults by (point, kind) for the
	// pip_faults_injected_total metric, fed by the faults observer.
	faultMu     sync.Mutex
	faultCounts map[[2]string]int64
}

// New returns a server around a fresh shared engine.
func New(opts Options) *Server {
	if !opts.HasConfig {
		opts.Config = pip.DefaultConfig()
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = DefaultCacheEntries
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	s := &Server{
		opts:         opts,
		queueSlots:   make(chan struct{}, opts.MaxQueue+opts.MaxConcurrent),
		runSlots:     make(chan struct{}, opts.MaxConcurrent),
		queueWait:    obs.NewHistogram(obs.LatencyBuckets()...),
		solveLatency: obs.NewHistogram(obs.LatencyBuckets()...),
		sessions:     newSessionStore(opts.MaxSessions),
		incrReusedC:  obs.NewHistogram(10, 100, 1e3, 1e4, 1e5, 1e6),
		breaker:      newBreaker(opts.Breaker),
		faultCounts:  map[[2]string]int64{},
	}
	s.incrFallbackBy = make(map[string]*atomic.Int64, len(incr.FallbackLabels))
	for _, label := range incr.FallbackLabels {
		s.incrFallbackBy[label] = new(atomic.Int64)
	}
	// The flight recorder and the engine's anomaly hook reference each
	// other through s, so both are wired after the struct exists and
	// before any traffic.
	s.shell.init("pipserve", opts.LogWriter, opts.FlightDir, opts.OnFlightDump, s.writeProm)
	s.eng = pip.NewEngine(pip.BatchOptions{
		Workers:        opts.Workers,
		Cache:          true,
		CacheEntries:   opts.CacheEntries,
		Retries:        opts.Retries,
		WatchdogFactor: opts.WatchdogFactor,
		MemSoftLimit:   opts.MemSoftLimit,
		TightBudget:    opts.TightBudget,
		OnAnomaly: func(reason, detail string) {
			s.flight.Trigger(reason, detail)
		},
	})
	s.watchBreaker(s.breaker, "server breaker")
	// Count injected faults by (point, kind) for /metrics. The observer is
	// process-global like the fault registry itself; the most recently
	// created server owns it, which is the one under chaos in practice.
	faults.SetObserver(func(p faults.Point, k faults.Kind) {
		s.faultMu.Lock()
		s.faultCounts[[2]string{string(p), k.String()}]++
		s.faultMu.Unlock()
	})
	analysis := func(h http.HandlerFunc) http.HandlerFunc {
		return s.traced(s.accounted(s.breakered(s.recovered(s.admitted(h)))))
	}
	s.mux.HandleFunc("POST /v1/solve", analysis(s.handleSolve))
	s.mux.HandleFunc("POST /v1/alias", analysis(s.handleAlias))
	s.mux.HandleFunc("POST /v1/resolve", analysis(s.handleResolve))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	if opts.EnablePprof {
		// net/http/pprof registers on DefaultServeMux at import; route the
		// same handlers explicitly so they exist only when enabled.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// requestIDKey carries the request's ID through its context.
type requestIDKey struct{}

// withRequestID accepts a caller-supplied X-Request-Id (so the analysis
// service slots into a tracing mesh) or generates one, echoes it on the
// response, and stores it in the request context for logging and trace
// attachment. Caller-supplied IDs are dropped when unprintable or
// oversized — they end up in logs and trace files verbatim. Shared with
// the shard router, which threads the same ID to every backend attempt.
func withRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeHeaderID(r.Header.Get(requestIDHeader))
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set(requestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		h(w, r.WithContext(ctx))
	}
}

// requestIDFrom returns the request's ID, or "" outside the middleware.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new analysis requests are refused with 503,
// /healthz flips to draining, and Shutdown blocks until every in-flight
// solve has finished or ctx expires. It returns ctx.Err() on a timed-out
// drain, nil on a clean one. No admitted request is ever dropped: whatever
// was past admission when Shutdown began completes and its response is
// written as usual.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Graceful drain: flush every resident cached solution to the
		// persistent store (when one is attached) so the next process
		// start over the same directory is warm. Failure costs only
		// warmth, never correctness — log it and drain clean anyway.
		if err := s.eng.SyncStore(); err != nil {
			s.log.Error("store flush on drain", "err", err)
		}
		return nil
	case <-ctx.Done():
		// Timed-out drain: still flush what we can, best effort.
		if err := s.eng.SyncStore(); err != nil {
			s.log.Error("store flush on timed-out drain", "err", err)
		}
		return ctx.Err()
	}
}

// OpenStore attaches a persistent solution store rooted at dir to the
// server's engine (see pip.Engine.OpenStore): restarts over the same
// directory answer their previous working set from verified disk hits
// instead of re-solving. Call before serving traffic.
func (s *Server) OpenStore(dir string) error { return s.eng.OpenStore(dir) }

// CloseStore flushes and closes the persistent store, if one is attached.
// Call after Shutdown has drained.
func (s *Server) CloseStore() error { return s.eng.CloseStore() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// accounted logs each analysis request and feeds the server's request
// counters from its outcome. Other responses never count: a /healthz
// probe of a draining server is no failed request, an unknown trace ID
// no bad one.
func (s *Server) accounted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ow := outcomeOf(w)
		h(ow, r)
		switch {
		case ow.status == http.StatusTooManyRequests:
			// counted at the admission site
		case ow.status >= 500:
			s.failures.Add(1)
		case ow.status >= 400:
			s.badRequests.Add(1)
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", ow.status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
			"request_id", requestIDFrom(r.Context()),
		)
	}
}

// outcomeWriter records what the middleware needs to know about a
// response: its status and the one outcome bit the status code cannot
// carry, whether the solve came back Ω-degraded. The tracing middleware
// installs one per request (feeding the flight recorder and the degraded
// trigger); the logging and breaker middleware read the same one. The
// breaker treats both 5xx and degradation as "bad" — a window full of
// either means the server is not producing exact answers anymore.
type outcomeWriter struct {
	http.ResponseWriter
	status   int
	degraded bool
}

func (w *outcomeWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// outcomeOf returns the request's outcome writer: w itself inside the
// tracing middleware, a fresh wrapper outside it.
func outcomeOf(w http.ResponseWriter) *outcomeWriter {
	if ow, ok := w.(*outcomeWriter); ok {
		return ow
	}
	return &outcomeWriter{ResponseWriter: w, status: http.StatusOK}
}

// markDegraded records a degradation on the request's outcome writer.
// Outside the middleware stack it is a no-op.
func markDegraded(w http.ResponseWriter) {
	if ow, ok := w.(*outcomeWriter); ok {
		ow.degraded = true
	}
}

// retryAfterSeconds renders a shed delay as a Retry-After value: whole
// seconds, rounded UP, floored at 1. Rounding down would tell well-behaved
// clients to retry after "0" seconds whenever the remaining cooldown is
// sub-second — an instruction to hammer a server that is shedding load.
// Every shed path (breaker 503, admission 429/503, drain 503) goes
// through this helper so none of them can regress to a zero.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// breakered wraps an analysis handler with the circuit breaker: shed
// immediately with 503 + Retry-After while the breaker is open, feed
// every completed request's outcome back into its window. Shed requests
// are never admitted, so the shutdown drain guarantee is untouched.
func (s *Server) breakered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, retryAfter := s.breaker.allow()
		if !ok {
			s.breakerRejected.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
			s.writeError(w, http.StatusServiceUnavailable, "circuit breaker open: server is shedding load")
			return
		}
		ow := outcomeOf(w)
		h(ow, r)
		s.breaker.record(ow.status >= 500 || ow.degraded)
	}
}

// recovered converts a handler panic into a 500 instead of killing the
// connection (and, one level up, feeds the breaker a failure). The
// admission middleware sits inside this wrapper, so its deferred slot
// releases and inFlight.Done run during the unwind before the recovery —
// a panicking request still drains cleanly.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.log.Error("handler panic",
					"panic", fmt.Sprint(rec),
					"request_id", requestIDFrom(r.Context()))
				s.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		h(w, r)
	}
}

// admitted wraps an analysis handler with the drain check and admission
// control: take a queue slot without blocking (429 when the server is
// saturated), then block for a run slot.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Chaos hook: an admission fault refuses the request before it is
		// admitted (no slot taken, not counted in the drain), exactly like
		// a transient front-door failure. Panics propagate to recovered.
		if err := faults.Inject(faults.ServeAdmission); err != nil {
			w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
			s.writeError(w, http.StatusServiceUnavailable, "admission failed, retry")
			return
		}
		s.admitMu.Lock()
		if s.draining.Load() {
			s.admitMu.Unlock()
			// A draining server is gone in moments; point clients at its
			// successor (or restart) after a beat rather than immediately.
			w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
			s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		select {
		case s.queueSlots <- struct{}{}:
		default:
			s.admitMu.Unlock()
			s.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
			s.writeError(w, http.StatusTooManyRequests, "server overloaded: request queue full")
			return
		}
		s.inFlight.Add(1)
		s.admitMu.Unlock()
		s.accepted.Add(1)
		s.queued.Add(1)
		defer func() {
			<-s.queueSlots
			s.inFlight.Done()
		}()
		// Wait for a run slot; give up if the client goes away first. The
		// wait is also a span on the request's trace lane, so a cluster
		// trace shows queue pressure per backend, not just in aggregate.
		var qspan obs.Span
		if rt := reqTraceFrom(r.Context()); rt != nil {
			qspan = rt.lane.Begin("queue-wait")
		}
		waitStart := time.Now()
		select {
		case s.runSlots <- struct{}{}:
		case <-r.Context().Done():
			s.queued.Add(-1)
			qspan.End(obs.S("outcome", "client-gone"))
			s.writeError(w, http.StatusServiceUnavailable, "client gave up while queued")
			return
		}
		s.queueWait.Observe(time.Since(waitStart).Seconds())
		qspan.End()
		s.queued.Add(-1)
		s.running.Add(1)
		defer func() {
			<-s.runSlots
			s.running.Add(-1)
		}()
		h(w, r)
	}
}

// shell is the HTTP surface the solving server and the shard router
// share: the mux, structured logging, the trace index behind GET
// /debug/trace, the anomaly flight recorder behind GET /debug/flightrec,
// GET /metrics, and the JSON response writers. Each owner embeds one and
// wires it with init before any traffic.
type shell struct {
	label string // process name in trace metadata
	mux   *http.ServeMux
	log   *slog.Logger

	// traces indexes per-trace-ID recorders for GET /debug/trace; flight
	// is the anomaly flight recorder behind GET /debug/flightrec.
	// traceDropped accumulates spans dropped by saturated per-trace
	// rings (pip_trace_dropped_total).
	traces       *traceIndex
	flight       *obs.FlightRecorder
	traceDropped atomic.Uint64

	// metrics renders the owner's full Prometheus exposition, for GET
	// /metrics and for every flight dump.
	metrics func(io.Writer)
}

// init wires the shell. A flight dump embeds the owner's metrics scrape,
// so every trigger must fire outside the locks that scrape takes (see
// obs.FlightRecorder and breaker). onDump, when set, runs after each dump.
func (sh *shell) init(label string, logTo io.Writer, flightDir string, onDump func(reason string), metrics func(io.Writer)) {
	sh.label = label
	sh.mux = http.NewServeMux()
	if logTo != nil {
		sh.log = slog.New(slog.NewJSONHandler(logTo, nil))
	} else {
		sh.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	sh.traces = newTraceIndex(DefaultTraceIndexSize, DefaultTraceRecords)
	sh.metrics = metrics
	sh.flight = obs.NewFlightRecorder(obs.FlightRecorderOptions{
		Dir: flightDir,
		Metrics: func() string {
			var b strings.Builder
			metrics(&b)
			return b.String()
		},
		OnDump: func(d *obs.Dump) {
			sh.log.Info("flight recorder dump", "reason", d.Reason, "detail", d.Detail, "file", d.File)
			if onDump != nil {
				onDump(d.Reason)
			}
		},
	})
	sh.mux.HandleFunc("GET /metrics", sh.handleMetrics)
	sh.mux.HandleFunc("GET /debug/flightrec", sh.handleFlightrec)
}

// watchBreaker dumps the flight recorder when b opens or half-opens;
// who names the breaker in the dump detail.
func (sh *shell) watchBreaker(b *breaker, who string) {
	b.notify = func(from, to breakerState) {
		switch to {
		case breakerOpen:
			sh.flight.Trigger(flightTriggerBreaker, who+" "+from.String()+"->open")
		case breakerHalfOpen:
			sh.flight.Trigger(flightTriggerBreakerHalf, who+" open->half-open")
		}
	}
}

// handleMetrics serves Prometheus text exposition format (0.0.4).
func (sh *shell) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sh.metrics(w)
}

// endProm closes an owner's exposition with the tracing and flight-
// recorder families, then logs any write error. fileDropped adds drops
// from a -trace file recorder; droppedHelp says what the counter sums.
func (sh *shell) endProm(p *obs.PromWriter, fileDropped uint64, droppedHelp string) {
	p.Counter("pip_trace_dropped_total", droppedHelp, float64(sh.traceDropped.Load()+fileDropped))
	tracesResident, tracesEvicted := sh.traces.stats()
	p.Gauge("pip_traces", "Distinct trace IDs resident for GET /debug/trace.", float64(tracesResident))
	p.Counter("pip_trace_evictions_total", "Trace IDs evicted from the bounded trace index.", float64(tracesEvicted))
	p.Counter("pip_flightrec_dumps_total", "Anomaly dumps taken by the flight recorder over the process lifetime.", float64(sh.flight.DumpCount()))
	p.Counter("pip_flightrec_suppressed_total", "Flight-recorder triggers swallowed by the per-reason cooldown.", float64(sh.flight.Suppressed()))
	if err := p.Err(); err != nil {
		sh.log.Error("write metrics", "err", err)
	}
}

// writeJSON writes v with the given status; encoding failures are logged
// (v is built from marshalable fields, so this is defensive).
func (sh *shell) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		sh.log.Error("encode response", "err", err)
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func (sh *shell) writeError(w http.ResponseWriter, status int, msg string) {
	sh.writeJSON(w, status, errorResponse{Error: msg})
}

// writeAnalyzeError maps pipeline errors to 400 (client fault) or 500.
func (sh *shell) writeAnalyzeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errBadRequest) {
		sh.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sh.writeError(w, http.StatusInternalServerError, err.Error())
}
