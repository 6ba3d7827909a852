package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/faults"
	"github.com/pip-analysis/pip/internal/obs"
)

// moduleRequest is the common module-bearing part of analysis requests:
// exactly one of MIR or C must be set. Config and Budget override the
// server defaults per request; the ?budget=, ?config=, and ?timeout=
// query parameters override the body fields in turn (so curl one-liners
// can reuse a canned body).
type moduleRequest struct {
	// Name labels the module in logs and responses (mini-C diagnostics
	// use it as the file name).
	Name string `json:"name,omitempty"`
	// MIR is the module in MIR textual IR.
	MIR string `json:"mir,omitempty"`
	// C is the module in mini-C source.
	C string `json:"c,omitempty"`
	// Config names a solver configuration, e.g. "IP+WL(FIFO)+PIP".
	Config string `json:"config,omitempty"`
	// Budget bounds the solve, e.g. "100ms", "5000f", "100ms,5000f".
	Budget string `json:"budget,omitempty"`
}

// solveRequest asks for points-to facts about one module.
type solveRequest struct {
	moduleRequest
	// Queries names values to report points-to sets for ("global",
	// "func.local", "func.$ret"). Empty means: return the full dump.
	Queries []string `json:"queries,omitempty"`
}

// pointsToEntry is one query's answer.
type pointsToEntry struct {
	// Targets are the named memory locations the value may point to.
	Targets []string `json:"targets"`
	// External reports that the value may additionally point to external
	// (unknown) memory — always true on degraded solves.
	External bool `json:"external"`
	// Error reports a name-resolution failure for this query only.
	Error string `json:"error,omitempty"`
}

// solveResponse is the answer to a solveRequest.
type solveResponse struct {
	Name     string `json:"name,omitempty"`
	Config   string `json:"config"`
	Degraded bool   `json:"degraded"`
	CacheHit bool   `json:"cache_hit"`
	// DiskHit marks a cache hit that was served from the persistent
	// store (fingerprint-verified) rather than resident memory.
	DiskHit bool `json:"disk_hit,omitempty"`
	// DurationNS is the solve time in nanoseconds (0 on cache hits).
	DurationNS int64                    `json:"duration_ns"`
	PointsTo   map[string]pointsToEntry `json:"points_to,omitempty"`
	// Escaped lists every externally accessible memory object.
	Escaped []string `json:"escaped"`
	// Dump is the full human-readable points-to report, returned when the
	// request named no queries.
	Dump string `json:"dump,omitempty"`
	// Demand reports how much of the problem a demand-driven (?ptr=)
	// analysis explored; omitted for exhaustive solves.
	Demand *pip.DemandStats `json:"demand,omitempty"`
}

// aliasRequest asks pairwise alias queries about one module.
type aliasRequest struct {
	moduleRequest
	// Pairs are value-name pairs to run through the combined
	// Andersen+BasicAA analysis.
	Pairs [][2]string `json:"pairs"`
	// Size is the access width in bytes for every query; <= 0 means 1.
	Size int64 `json:"size,omitempty"`
}

// aliasAnswer is one pair's verdict.
type aliasAnswer struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Result string `json:"result,omitempty"` // NoAlias | MayAlias | MustAlias
	Error  string `json:"error,omitempty"`
}

// aliasResponse is the answer to an aliasRequest.
type aliasResponse struct {
	Name     string        `json:"name,omitempty"`
	Config   string        `json:"config"`
	Degraded bool          `json:"degraded"`
	CacheHit bool          `json:"cache_hit"`
	Answers  []aliasAnswer `json:"answers"`
	// Demand reports how much of the problem a demand-driven (?ptr=)
	// analysis explored; omitted for exhaustive solves. Alias answers on a
	// demand slice stay sound: unexplored values answer conservatively.
	Demand *pip.DemandStats `json:"demand,omitempty"`
}

// errBadRequest marks client errors (malformed body, unparsable module,
// unknown configuration) that must map to 400, not 500.
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// decode reads a JSON body into v, bounded by DefaultMaxBodyBytes and
// strict about unknown fields.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, DefaultMaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("invalid JSON body: %v", err)
	}
	return nil
}

// requestConfig resolves the solver configuration: the body field, then
// the ?config= query parameter, over cfg. The budget is not folded in
// here (see analyze and handleResolve — they differ on it).
func requestConfig(r *http.Request, req *moduleRequest, cfg pip.Config) (pip.Config, bool, error) {
	named := false
	if name := req.Config; name != "" {
		c, err := pip.ParseConfig(name)
		if err != nil {
			return cfg, false, badRequestf("config: %v", err)
		}
		cfg, named = c, true
	}
	if name := r.URL.Query().Get("config"); name != "" {
		c, err := pip.ParseConfig(name)
		if err != nil {
			return cfg, false, badRequestf("config: %v", err)
		}
		cfg, named = c, true
	}
	return cfg, named, nil
}

// requestBudget parses each non-empty budget source in turn over b; the
// last one wins.
func requestBudget(b pip.Budget, srcs ...string) (pip.Budget, error) {
	for _, src := range srcs {
		if src == "" {
			continue
		}
		parsed, err := pip.ParseBudget(src)
		if err != nil {
			return b, badRequestf("budget: %v", err)
		}
		b = parsed
	}
	return b, nil
}

// parseModule compiles or parses the request's module (exactly one of
// "mir" or "c" must be set).
func parseModule(req *moduleRequest) (*pip.Module, error) {
	switch {
	case req.MIR != "" && req.C != "":
		return nil, badRequestf(`both "mir" and "c" set; send exactly one`)
	case req.MIR != "":
		m, err := pip.ParseIR(req.MIR)
		if err != nil {
			return nil, badRequestf("module: %v", err)
		}
		return m, nil
	case req.C != "":
		name := req.Name
		if name == "" {
			name = "<request>"
		}
		m, err := pip.CompileC(name, req.C)
		if err != nil {
			return nil, badRequestf("module: %v", err)
		}
		return m, nil
	default:
		return nil, badRequestf(`module missing: send "mir" or "c"`)
	}
}

// analyze runs the shared request pipeline: resolve configuration and
// budget (body fields, then query parameters, then the request deadline),
// compile or parse the module, and solve it on the shared engine. One or
// more ?ptr= query parameters switch the solve to demand-driven mode:
// only the constraint slice reachable from the named root pointers is
// solved, and every other variable soundly answers Ω. An exhaustive MIR
// request hands its text to the engine unparsed (pip.Engine.AnalyzeIR):
// a text the memory tier has answered before is answered without
// parsing, and on a miss the parse runs inside the solve span.
func (s *Server) analyze(r *http.Request, req *moduleRequest) (pip.BatchResult, pip.Config, error) {
	cfg := s.opts.Config
	// Chaos hook: a handler fault fails the request after admission — the
	// case the drain and breaker guarantees are really about. An injected
	// error maps to 500; an injected panic unwinds to the recovery
	// middleware (releasing admission slots on the way) and becomes a 500
	// there.
	if err := faults.Inject(faults.ServeHandler); err != nil {
		return pip.BatchResult{}, cfg, fmt.Errorf("handler fault: %w", err)
	}
	cfg, _, err := requestConfig(r, req, cfg)
	if err != nil {
		return pip.BatchResult{}, cfg, err
	}
	q := r.URL.Query()
	budget, err := requestBudget(s.opts.DefaultBudget, req.Budget, q.Get("budget"))
	if err != nil {
		return pip.BatchResult{}, cfg, err
	}
	ctx := r.Context()
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			return pip.BatchResult{}, cfg, badRequestf("timeout: bad duration %q", ts)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// The effective budget is the tightest of: server default, request
	// budget, and the request deadline — so a solve never outlives its
	// caller, it degrades soundly instead.
	cfg.Budget = pip.BudgetFromContext(ctx, budget)

	ptrs := q["ptr"]
	var m *pip.Module
	if req.MIR == "" || req.C != "" || len(ptrs) > 0 {
		if m, err = parseModule(req); err != nil {
			return pip.BatchResult{}, cfg, err
		}
	}
	// Attach the solve to a request-scoped trace lane. The -trace file
	// recorder (opts.Trace) keeps precedence when configured — its captured
	// file must stay cross-referenceable against request logs as before —
	// otherwise the per-trace-ID recorder behind GET /debug/trace gets the
	// solve's phase spans.
	rt := reqTraceFrom(r.Context())
	var lane pip.TraceLane
	if s.opts.Trace != nil {
		if id := requestIDFrom(r.Context()); id != "" {
			lane = s.opts.Trace.NewTrack("req-" + id)
		}
	} else if rt != nil {
		lane = rt.lane
	}
	var res pip.BatchResult
	var solveSpan obs.Span
	if rt != nil {
		solveSpan = rt.lane.Begin("solve", obs.S("config", cfg.String()))
	}
	solveStart := time.Now()
	switch {
	case m == nil:
		if res, err = s.eng.AnalyzeIR(req.MIR, cfg, s.opts.Summaries, lane); err != nil {
			solveSpan.End()
			return pip.BatchResult{}, cfg, badRequestf("module: %v", err)
		}
	case len(ptrs) > 0:
		// Demand mode. Root names are validated first so a bad name is the
		// client's 400, not an analysis failure.
		if _, _, err := pip.DemandRoots(m, s.opts.Summaries, ptrs); err != nil {
			solveSpan.End()
			return pip.BatchResult{}, cfg, badRequestf("%v", err)
		}
		s.demandReqs.Add(1)
		res, err = s.eng.AnalyzeDemand(m, cfg, s.opts.Summaries, ptrs)
	default:
		res = s.eng.AnalyzeTraced(m, cfg, s.opts.Summaries, lane)
	}
	s.solveLatency.Observe(time.Since(solveStart).Seconds())
	solveSpan.End(
		obs.N("cache_hit", b2i(res.CacheHit)),
		obs.N("raw", b2i(res.RawHit)),
		obs.N("disk_hit", b2i(res.DiskHit)),
		obs.N("degraded", b2i(res.Degraded)))
	if res.Err != nil {
		// Engine-level failure (solver error or recovered panic): the
		// module parsed, so this is on the server, not the client.
		return pip.BatchResult{}, cfg, fmt.Errorf("analysis failed: %v", res.Err)
	}
	if res.Degraded {
		s.degraded.Add(1)
	}
	return res, cfg, nil
}

// analyzer answers one decoded analysis request: the server's engine
// pipeline (Server.analyze), or the router's local Ω answer when every
// shard is down (Router.analyzeLocally).
type analyzer func(r *http.Request, req *moduleRequest) (pip.BatchResult, pip.Config, error)

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) { s.answerSolve(w, r, s.analyze) }

func (s *Server) handleAlias(w http.ResponseWriter, r *http.Request) { s.answerAlias(w, r, s.analyze) }

// answerSolve decodes a /v1/solve request, runs analyze on it, and
// renders the points-to answer.
func (sh *shell) answerSolve(w http.ResponseWriter, r *http.Request, analyze analyzer) {
	var req solveRequest
	if err := decode(r, &req); err != nil {
		sh.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, cfg, err := analyze(r, &req.moduleRequest)
	if err != nil {
		sh.writeAnalyzeError(w, err)
		return
	}
	if res.Degraded {
		markDegraded(w)
	}
	resp := solveResponse{
		Name:       req.Name,
		Config:     cfg.String(),
		Degraded:   res.Degraded,
		CacheHit:   res.CacheHit,
		DiskHit:    res.DiskHit,
		DurationNS: res.Duration.Nanoseconds(),
		Escaped:    res.Result.ExternallyAccessible(),
		Demand:     res.Demand,
	}
	fillPointsTo(&resp.PointsTo, &resp.Dump, res.Result, req.Queries)
	sh.writeJSON(w, http.StatusOK, resp)
}

// answerAlias decodes a /v1/alias request, runs analyze on it, and
// renders one verdict per pair.
func (sh *shell) answerAlias(w http.ResponseWriter, r *http.Request, analyze analyzer) {
	var req aliasRequest
	if err := decode(r, &req); err != nil {
		sh.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Pairs) == 0 {
		sh.writeError(w, http.StatusBadRequest, `"pairs" missing or empty`)
		return
	}
	res, cfg, err := analyze(r, &req.moduleRequest)
	if err != nil {
		sh.writeAnalyzeError(w, err)
		return
	}
	if res.Degraded {
		markDegraded(w)
	}
	resp := aliasResponse{
		Name:     req.Name,
		Config:   cfg.String(),
		Degraded: res.Degraded,
		CacheHit: res.CacheHit,
		Answers:  make([]aliasAnswer, 0, len(req.Pairs)),
		Demand:   res.Demand,
	}
	for _, pair := range req.Pairs {
		ans := aliasAnswer{A: pair[0], B: pair[1]}
		verdict, err := res.Result.Alias(pair[0], pair[1], req.Size)
		if err != nil {
			ans.Error = err.Error()
		} else {
			ans.Result = verdict.String()
		}
		resp.Answers = append(resp.Answers, ans)
	}
	sh.writeJSON(w, http.StatusOK, resp)
}

// fillPointsTo renders query answers (or the full dump) from a Result —
// the shared tail of the solve/resolve response shapes.
func fillPointsTo(pointsTo *map[string]pointsToEntry, dump *string, res *pip.Result, queries []string) {
	if len(queries) == 0 {
		*dump = res.Dump()
		return
	}
	*pointsTo = make(map[string]pointsToEntry, len(queries))
	for _, name := range queries {
		targets, external, err := res.PointsTo(name)
		if err != nil {
			(*pointsTo)[name] = pointsToEntry{Error: err.Error()}
			continue
		}
		if targets == nil {
			targets = []string{}
		}
		(*pointsTo)[name] = pointsToEntry{Targets: targets, External: external}
	}
}

// resolveRequest (re-)submits a version of a module to an incremental
// session. An empty handle starts a new session (lineage); the returned
// handle identifies it on later resubmissions, which diff the constraint
// sets and reuse, resume, or re-solve as the edit allows.
type resolveRequest struct {
	moduleRequest
	// Handle identifies the incremental session. Empty creates one.
	Handle string `json:"handle,omitempty"`
	// Queries names values to report points-to sets for, like /v1/solve.
	Queries []string `json:"queries,omitempty"`
}

// resolveResponse is the answer to a resolveRequest.
type resolveResponse struct {
	Name   string `json:"name,omitempty"`
	Handle string `json:"handle"`
	Config string `json:"config"`
	// Generation counts solves in this session's lineage, from 0.
	Generation int `json:"generation"`
	// Incremental reports which path the re-solve took (reuse, resume,
	// fallback) and how many constraints it reused.
	Incremental *pip.IncrementalStats    `json:"incremental"`
	Degraded    bool                     `json:"degraded"`
	DurationNS  int64                    `json:"duration_ns"`
	PointsTo    map[string]pointsToEntry `json:"points_to,omitempty"`
	Escaped     []string                 `json:"escaped"`
	Dump        string                   `json:"dump,omitempty"`
}

// handleResolve serves incremental re-analysis. The session's solver
// configuration is fixed when the session is created (first request);
// naming a different configuration on a later resubmission is an error,
// because the persisted propagation state is only valid for the lineage's
// own configuration. Per-request budgets and timeouts are deliberately
// not folded in: a budget would make the configuration non-resumable, so
// budgeted incremental analysis must be requested at session creation.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req resolveRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Chaos hook, matching the one in analyze.
	if err := faults.Inject(faults.ServeHandler); err != nil {
		s.writeAnalyzeError(w, fmt.Errorf("handler fault: %w", err))
		return
	}
	cfg, named, err := requestConfig(r, &req.moduleRequest, s.opts.Config)
	if err == nil {
		cfg.Budget, err = requestBudget(cfg.Budget, req.Budget)
	}
	if err != nil {
		s.writeAnalyzeError(w, err)
		return
	}
	m, err := parseModule(&req.moduleRequest)
	if err != nil {
		s.writeAnalyzeError(w, err)
		return
	}

	// create/get acquire a reference that keeps the session out of the
	// evictor's reach for the whole resolve: without it, LRU churn from
	// concurrent session creation could free this lineage's checkpoint
	// state mid-solve and pair the response with a dead handle.
	var sess *session
	if req.Handle == "" {
		sess = s.sessions.create(s.eng, cfg)
	} else {
		var ok bool
		sess, ok = s.sessions.get(req.Handle)
		if !ok {
			s.writeError(w, http.StatusNotFound, "unknown or expired session handle; resubmit without one to start a new session")
			return
		}
		if named && cfg.String() != sess.cfg.String() {
			s.sessions.release(sess)
			s.writeAnalyzeError(w, badRequestf("config %q differs from the session's %q; a lineage's configuration is fixed at creation", cfg, sess.cfg))
			return
		}
	}
	defer s.sessions.release(sess)

	var solveSpan obs.Span
	if rt := reqTraceFrom(r.Context()); rt != nil {
		solveSpan = rt.lane.Begin("resolve", obs.S("config", sess.cfg.String()))
	}
	sess.mu.Lock()
	solveStart := time.Now()
	res := sess.sess.AnalyzeWithSummaries(m, s.opts.Summaries)
	s.solveLatency.Observe(time.Since(solveStart).Seconds())
	generation := sess.sess.Generation()
	sess.mu.Unlock()
	solveSpan.End(
		obs.N("generation", int64(generation)),
		obs.N("degraded", b2i(res.Degraded)))
	if res.Err != nil {
		s.writeAnalyzeError(w, fmt.Errorf("analysis failed: %v", res.Err))
		return
	}
	if res.Degraded {
		s.degraded.Add(1)
		markDegraded(w)
	}
	if inc := res.Incremental; inc != nil {
		switch {
		case inc.ReusedSolution:
			s.incrReused.Add(1)
		case inc.Resumed:
			s.incrResumed.Add(1)
		default:
			s.incrFallback.Add(1)
			s.incrFallbackBy[incr.FallbackLabel(inc.FallbackReason)].Add(1)
		}
		s.incrReusedC.Observe(float64(inc.Reused))
	}

	resp := resolveResponse{
		Name:        req.Name,
		Handle:      sess.id,
		Config:      sess.cfg.String(),
		Generation:  generation,
		Incremental: res.Incremental,
		Degraded:    res.Degraded,
		DurationNS:  res.Duration.Nanoseconds(),
		Escaped:     res.Result.ExternallyAccessible(),
	}
	fillPointsTo(&resp.PointsTo, &resp.Dump, res.Result, req.Queries)
	s.writeJSON(w, http.StatusOK, resp)
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status   string `json:"status"` // "ok" | "draining"
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok", InFlight: s.running.Load(), Queued: s.queued.Load()}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

// writeProm renders the full Prometheus exposition to w: GET /metrics,
// and the scrape the flight recorder embeds in every anomaly dump — a
// dump is "what did the server look like when this happened", and the
// answer is the metrics page.
func (s *Server) writeProm(w io.Writer) {
	st := s.eng.Stats()
	p := obs.NewPromWriter(w)

	// Request-path latency split: queue wait vs. solve time.
	p.Histogram("pip_solve_latency_seconds",
		"Time spent analyzing one request's module on the shared engine (including cache hits).",
		s.solveLatency)
	p.Histogram("pip_queue_wait_seconds",
		"Time admitted requests waited for a run slot.",
		s.queueWait)

	// Admission control.
	p.Counter("pip_requests_accepted_total", "Admitted analysis requests.", float64(s.accepted.Load()))
	p.Counter("pip_requests_rejected_total", "Requests refused with 429 by admission control.", float64(s.rejected.Load()))
	p.Counter("pip_requests_bad_total", "Requests refused with a 4xx other than 429.", float64(s.badRequests.Load()))
	p.Counter("pip_requests_failed_total", "Requests answered with a 5xx.", float64(s.failures.Load()))
	p.Counter("pip_solves_degraded_total", "Solves that returned the omega-degraded solution.", float64(s.degraded.Load()))
	p.Gauge("pip_running_solves", "Solves currently holding a run slot.", float64(s.running.Load()))
	p.Gauge("pip_queued_requests", "Requests currently waiting for a run slot.", float64(s.queued.Load()))
	p.Gauge("pip_draining", "1 while the server is draining for shutdown.", b2f(s.draining.Load()))

	// Solution cache.
	p.Gauge("pip_cache_entries", "Resident cached solutions.", float64(st.CacheEntries))
	p.Gauge("pip_cache_capacity", "Configured cache bound (0 = unbounded).", float64(s.eng.CacheCap()))
	p.Counter("pip_cache_hits_total", "Solves served from the solution cache.", float64(st.CacheHits))
	p.Counter("pip_cache_raw_hits_total", "Cache hits answered by the raw MIR text alone, without parsing (also counted in pip_cache_hits_total).", float64(st.RawHits))
	p.Counter("pip_cache_evictions_total", "Cached solutions dropped by the LRU bound.", float64(st.CacheEvictions))

	// Persistent solution store (the disk tier under the memory LRU).
	p.Counter("pip_store_hits_total", "Solves served from the persistent store after a memory miss.", float64(st.DiskHits))
	p.Counter("pip_store_flushed_total", "Solutions flushed to the persistent store (eviction write-behind plus drain).", float64(st.StoreFlushed))
	p.Gauge("pip_store_entries", "Live entries in the persistent store (0 when no store is attached).", float64(st.StoreEntries))
	p.Counter("pip_store_corrupt_total", "Store entries that failed CRC/decode/fingerprint verification and were treated as misses.", float64(st.StoreCorrupt))

	// Incremental re-solve (/v1/resolve sessions) and demand-driven
	// (?ptr=) queries.
	p.CounterVec("pip_incremental_requests_total",
		"Incremental /v1/resolve requests by path taken: checkpoint resume, empty-delta solution reuse, or from-scratch fallback.",
		"outcome", map[string]float64{
			"resumed":  float64(s.incrResumed.Load()),
			"reused":   float64(s.incrReused.Load()),
			"fallback": float64(s.incrFallback.Load()),
		})
	fallbacks := make(map[string]float64, len(s.incrFallbackBy))
	for label, n := range s.incrFallbackBy {
		fallbacks[label] = float64(n.Load())
	}
	p.CounterVec("pip_incremental_fallbacks_total",
		"Incremental /v1/resolve requests that solved from scratch, by reason: the session's initial solve, retyped variables, removed constraints, a grown universe under explicit-omega, a non-resumable configuration, no checkpoint, or a resume the checkpoint refused.",
		"reason", fallbacks)
	p.Histogram("pip_incremental_reused_constraints",
		"Constraints carried over from the previous generation per incremental request.",
		s.incrReusedC)
	p.Counter("pip_demand_requests_total", "Demand-driven (?ptr=) analysis requests.", float64(s.demandReqs.Load()))
	resident, evicted := s.sessions.stats()
	p.Gauge("pip_sessions", "Resident incremental sessions.", float64(resident))
	p.Counter("pip_session_evictions_total", "Incremental sessions dropped by the LRU bound.", float64(evicted))

	// Resilience: the circuit breaker, the engine's retry/watchdog/memory
	// guard, cache integrity, and injected chaos.
	state, trips := s.breaker.snapshot()
	p.Gauge("pip_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", float64(state))
	p.Counter("pip_breaker_trips_total", "Times the circuit breaker opened.", float64(trips))
	p.Counter("pip_breaker_rejected_total", "Requests shed with 503 by the open breaker.", float64(s.breakerRejected.Load()))
	p.Counter("pip_handler_panics_total", "Handler panics recovered into 500s.", float64(s.panics.Load()))
	p.Counter("pip_retries_total", "Transiently failed jobs re-solved by the engine.", float64(st.Retries))
	p.Counter("pip_retry_successes_total", "Retried jobs that then succeeded.", float64(st.RetrySuccesses))
	p.Counter("pip_watchdog_fired_total", "Stuck solves force-degraded to the sound omega solution by the watchdog.", float64(st.WatchdogFired))
	p.Counter("pip_budget_tightened_total", "Solves switched to the tight budget by the soft memory guard.", float64(st.MemTightened))
	p.Counter("pip_cache_corrupt_total", "Cache entries that failed content-hash verification and were dropped.", float64(st.CacheCorrupt))
	p.Counter("pip_coalesced_total", "Jobs that shared an identical in-flight solve instead of re-solving.", float64(st.Coalesced))
	s.faultMu.Lock()
	injected := make(map[[2]string]float64, len(s.faultCounts))
	for k, v := range s.faultCounts {
		injected[k] = float64(v)
	}
	s.faultMu.Unlock()
	if len(injected) > 0 {
		p.CounterVec2("pip_faults_injected_total",
			"Faults injected by the chaos registry, by injection point and kind.",
			"point", "kind", injected)
	}

	// Engine counters and the per-rule firing breakdown.
	p.Counter("pip_engine_jobs_total", "Jobs executed by the shared engine.", float64(st.Jobs))
	p.Counter("pip_engine_failures_total", "Engine jobs that failed (solver error or recovered panic).", float64(st.Failures))
	p.CounterVec("pip_rule_firings_total",
		"Inference-rule applications per rule family, aggregated across all solves.",
		"rule", map[string]float64{
			"trans": float64(st.Telemetry.Firings.Trans),
			"load":  float64(st.Telemetry.Firings.Load),
			"store": float64(st.Telemetry.Firings.Store),
			"call":  float64(st.Telemetry.Firings.Call),
			"flag":  float64(st.Telemetry.Firings.Flag),
		})

	// Two different time totals, deliberately both exported: busy-span
	// wall (elapsed time with >= 1 job running; overlap counted once) vs.
	// summed per-solve phase durations (CPU time; overlapping solves sum,
	// so phases can legitimately exceed the busy span). See
	// core.Telemetry.Merge.
	p.Counter("pip_engine_busy_seconds_total",
		"Busy-span wall clock: elapsed time during which at least one job was running.",
		st.Wall.Seconds())
	p.Counter("pip_engine_cpu_seconds_total",
		"Sum of per-job solve durations (sequential-equivalent cost).",
		st.CPU.Seconds())
	p.CounterVec("pip_engine_phase_seconds_total",
		"Per-phase solver time summed across solves (CPU time: may exceed the busy span).",
		"phase", map[string]float64{
			"offline":   st.Telemetry.Offline.Seconds(),
			"propagate": st.Telemetry.Propagate.Seconds(),
			"collapse":  st.Telemetry.Collapse.Seconds(),
		})
	p.Gauge("pip_engine_worklist_peak", "Highest worklist depth seen by any solve.", float64(st.Telemetry.WorklistPeak))
	p.Gauge("pip_engine_workers", "Configured engine pool bound.", float64(st.Workers))

	// Distributed tracing and the anomaly flight recorder.
	s.endProm(p, s.opts.Trace.Dropped(),
		"Trace records dropped by saturated trace rings (per-request traces plus the -trace file recorder).")
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
