package serve

// Distributed tracing for the request path. Every analysis request runs
// under a trace ID (X-Trace-Id: caller-supplied so the router and its
// backends share one, or minted here) with its spans recorded on a
// per-trace obs.Trace held in a bounded index. GET /debug/trace?id=
// replays a trace as Chrome trace_event JSON; on the router that
// endpoint additionally fetches every backend's spans for the ID and
// merges them into one timeline (obs.MergeChrome). Completed requests
// also feed the flight recorder, so an anomaly dump carries the recent
// request history that led up to it.

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/pip-analysis/pip/internal/obs"
)

// Trace-path bounds: how many distinct trace IDs a process retains for
// /debug/trace, and the record capacity of each per-trace ring. Requests
// sharing a trace ID share one ring (their lanes are distinguished by
// request ID), so the capacity covers a multi-request trace; a ring
// allocates its segments as records arrive, so a one-request trace costs
// one small segment, not the capacity.
const (
	DefaultTraceIndexSize    = 256
	DefaultTraceRecords      = 1 << 12
	traceParentHeader        = "X-Trace-Parent"
	traceIDHeader            = "X-Trace-Id"
	requestIDHeader          = "X-Request-Id"
	flightTriggerDegraded    = "solve.degraded"
	flightTriggerBreaker     = "breaker.open"
	flightTriggerBreakerHalf = "breaker.half-open"
	flightTriggerMembership  = "membership.change"
	flightTriggerProbeFail   = "probe.fail"
)

// sanitizeHeaderID validates a caller-supplied identifier header
// (request ID, trace ID, span parent): printable ASCII, bounded length.
// Returns "" when the value must be replaced.
func sanitizeHeaderID(id string) string {
	if id == "" || len(id) > 128 || strings.ContainsFunc(id, func(c rune) bool {
		return c < 0x20 || c > 0x7e
	}) {
		return ""
	}
	return id
}

// traceIDKey carries the request's trace ID through its context.
type traceIDKey struct{}

// traceIDFrom returns the request's trace ID, or "" outside the middleware.
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// withTraceID accepts a caller-supplied X-Trace-Id or mints one, echoes
// it, and stores it in the context. Shared by the server and the router;
// the router forwards the same ID to every backend attempt, which is
// what makes the cluster-wide merge possible.
func withTraceID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeHeaderID(r.Header.Get(traceIDHeader))
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set(traceIDHeader, id)
		ctx := context.WithValue(r.Context(), traceIDKey{}, id)
		h(w, r.WithContext(ctx))
	}
}

// traceIndex is the bounded trace-ID → recorder map behind /debug/trace.
// Eviction is FIFO over distinct IDs: a debugging endpoint wants the
// recent past, and FIFO is exact enough for that at this size.
type traceIndex struct {
	capacity int
	records  int // ring capacity of each per-trace recorder

	mu      sync.Mutex
	m       map[string]*obs.Trace
	order   []string
	evicted uint64
}

func newTraceIndex(capacity, records int) *traceIndex {
	if capacity <= 0 {
		capacity = DefaultTraceIndexSize
	}
	if records <= 0 {
		records = DefaultTraceRecords
	}
	return &traceIndex{
		capacity: capacity,
		records:  records,
		m:        make(map[string]*obs.Trace, capacity),
	}
}

// obtain returns the recorder for a trace ID, creating (and indexing) it
// on first use. Requests that share a trace ID share a recorder, so a
// router fan-out or a client-grouped run of requests lands on one
// timeline.
func (ti *traceIndex) obtain(id, label string) *obs.Trace {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if tr, ok := ti.m[id]; ok {
		return tr
	}
	tr := obs.New(label, ti.records)
	tr.SetID(id)
	if len(ti.order) >= ti.capacity {
		oldest := ti.order[0]
		ti.order = ti.order[1:]
		delete(ti.m, oldest)
		ti.evicted++
	}
	ti.m[id] = tr
	ti.order = append(ti.order, id)
	return tr
}

// get returns the recorder for a trace ID, or nil.
func (ti *traceIndex) get(id string) *obs.Trace {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return ti.m[id]
}

// stats returns resident trace count and evictions.
func (ti *traceIndex) stats() (resident int, evicted uint64) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return len(ti.m), ti.evicted
}

// reqTrace is the per-request recording handle the middleware threads
// through the context: the trace it records onto and the request's lane.
type reqTrace struct {
	tr   *obs.Trace
	lane obs.Track
}

// reqTraceKey carries the reqTrace through the request context.
type reqTraceKey struct{}

// reqTraceFrom returns the request's recording handle, or nil.
func reqTraceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// traced builds the per-request front of every analysis endpoint of
// both the server and the router: request ID, trace ID, then the
// request's trace lane and its one outcome writer, which feeds the
// flight recorder. Admission and forwarding run inside it, so their
// spans record on the lane it opens.
func (sh *shell) traced(h http.HandlerFunc) http.HandlerFunc {
	return withRequestID(withTraceID(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		traceID := traceIDFrom(ctx)
		reqID := requestIDFrom(ctx)
		tr := sh.traces.obtain(traceID, sh.label)
		lane := tr.NewTrack("req-" + reqID)
		rt := &reqTrace{tr: tr, lane: lane}
		spanArgs := []obs.KV{obs.S("request_id", reqID)}
		if parent := sanitizeHeaderID(r.Header.Get(traceParentHeader)); parent != "" {
			spanArgs = append(spanArgs, obs.S("parent", parent))
		}
		root := lane.Begin(r.URL.Path, spanArgs...)
		ow := &outcomeWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		droppedBefore := tr.Dropped()
		h(ow, r.WithContext(context.WithValue(ctx, reqTraceKey{}, rt)))
		root.End(obs.N("status", int64(ow.status)))

		// Per-trace rings drop (counted) when saturated; surface the new
		// drops on pip_trace_dropped_total so saturated tracing is
		// visible. The delta is approximate under concurrent requests on
		// one trace ID — the counter's job is "nonzero means look".
		if d := tr.Dropped() - droppedBefore; d > 0 {
			sh.traceDropped.Add(d)
		}
		sh.flight.Record(obs.ReqRecord{
			TraceID:    traceID,
			RequestID:  reqID,
			Path:       r.URL.Path,
			Status:     ow.status,
			Degraded:   ow.degraded,
			Start:      start.UnixNano(),
			DurationNS: time.Since(start).Nanoseconds(),
			Dropped:    tr.Dropped(),
			Spans:      lane.Export(),
		})
		if ow.degraded {
			sh.flight.Trigger(flightTriggerDegraded, r.URL.Path)
		}
	}))
}

// handleTrace serves GET /debug/trace?id=<trace-id>: the process's spans
// for that trace as Chrome trace_event JSON. 404 for unknown IDs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := sanitizeHeaderID(r.URL.Query().Get("id"))
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "missing or invalid ?id= trace ID")
		return
	}
	tr := s.traces.get(id)
	if tr == nil {
		s.writeError(w, http.StatusNotFound, "unknown trace ID (evicted or never seen)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteChrome(w); err != nil {
		s.log.Error("write trace", "err", err)
	}
}

// flightrecResponse is the GET /debug/flightrec body.
type flightrecResponse struct {
	// Dumps are the retained anomaly dumps, oldest first.
	Dumps []obs.Dump `json:"dumps"`
	// DumpsTotal counts dumps over the process lifetime (retained or not).
	DumpsTotal uint64 `json:"dumps_total"`
	// Suppressed counts triggers swallowed by the per-reason cooldown.
	Suppressed uint64 `json:"suppressed"`
	// Recorded counts requests ever recorded into the ring.
	Recorded uint64 `json:"recorded"`
}

// handleFlightrec serves GET /debug/flightrec: the last N anomaly dumps
// (on the router: per-backend breaker transitions, probe failures,
// membership changes, and local Ω degradations as well).
func (sh *shell) handleFlightrec(w http.ResponseWriter, r *http.Request) {
	sh.writeJSON(w, http.StatusOK, flightrecResponse{
		Dumps:      sh.flight.Dumps(),
		DumpsTotal: sh.flight.DumpCount(),
		Suppressed: sh.flight.Suppressed(),
		Recorded:   sh.flight.Recorded(),
	})
}
