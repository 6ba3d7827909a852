package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/alias"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/core/incr"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/serve"
	"github.com/pip-analysis/pip/internal/store"
)

// The traced run is one layer sweep over the streams of all three
// workloads (same seed), so that every per-layer metric is measured on the
// workload that reaches its layer:
//
//   - batch-solve: engine.Run per Table V configuration, with the engine's
//     own job trace giving queue waits and Solution.Telemetry the core
//     phase times and exact counts;
//   - serve-solve: the stream sent to a pipserve process (cache, store and
//     trace-index counters from its /metrics), then replayed in-process
//     twice: through serve.Server.Handler() for per-request handler time
//     and allocation, and through the layers' public functions in the
//     order the handler calls them, each call in a span;
//   - edit-sessions: every session sent through a serve.Router in front
//     of an in-process backend (router hop = router time minus backend
//     handler time), then replayed through cfront, core and the engine's
//     incremental path, each call in a span.
//
// Each in-process replay also runs once untraced; the difference is the
// tracing overhead, and the exact counts of the two must be equal.

// traceServeRequests is the stream prefix the serve sweep replays.
const traceServeRequests = 600

// tracer records the benchmark's own spans around calls into a layer. A
// nil tracer calls through without timing: the untraced replay.
type tracer struct {
	tr *obs.Trace
	tk obs.Track
}

func newTracer(label string) *tracer {
	tr := obs.New(label, 1<<16)
	return &tracer{tr: tr, tk: tr.NewTrack(label)}
}

// span runs fn inside a span named after its layer call, with the
// enclosing layer and the request id as arguments, and returns its
// duration.
func (t *tracer) span(name, parent string, req int, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	sp := t.tk.Begin(name, obs.S("parent", parent), obs.N("req", int64(req)))
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return d
}

// write saves the spans as Chrome JSON under traceDir.
func (t *tracer) write(name string) error {
	return t.tr.WriteChromeFile(filepath.Join(traceDir, name+".json"))
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traceDir holds the traced run's Chrome JSON, one file per workload.
var traceDir = filepath.Join(".bench_build", "trace")

func runTraced(e *env) (*report, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	r := &report{Workload: "traced layer sweep"}
	for _, sweep := range []func(*env, *report) error{traceBatch, traceServe, traceEdit} {
		if err := sweep(e, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func overheadPct(traced, untraced time.Duration) float64 {
	return (traced.Seconds()/untraced.Seconds() - 1) * 100
}

// configSlug names a configuration in a metric name.
func configSlug(name string) string {
	s := strings.ToLower(name)
	for _, x := range []string{"+wl(", ")", "("} {
		s = strings.ReplaceAll(s, x, "_")
	}
	s = strings.ReplaceAll(s, "+", "_")
	return strings.Trim(strings.ReplaceAll(s, "__", "_"), "_")
}

// batchPass is one engine.Run per configuration over the corpus.
type batchPass struct {
	wall                         time.Duration
	offline, propagate, collapse []time.Duration
	firings                      int64
	worklistPeak                 int
	solutionBytes                int
	allocBytes                   uint64
	cpu, busy                    time.Duration
	workers                      int
}

func traceBatch(e *env, r *report) error {
	files, err := setupBatch()
	if err != nil {
		return err
	}
	run := func(tr *tracer, jobTrace *obs.Trace) batchPass {
		p := batchPass{
			offline:   make([]time.Duration, len(tableVConfigs)),
			propagate: make([]time.Duration, len(tableVConfigs)),
			collapse:  make([]time.Duration, len(tableVConfigs)),
		}
		a0 := allocBytes()
		start := time.Now()
		for ci, c := range tableVConfigs {
			name := c.Name
			cfg := core.MustParseConfig(name)
			eng := engine.New(engine.Options{Workers: runtime.NumCPU(), Trace: jobTrace})
			jobs := make([]engine.Job, len(files))
			for i, f := range files {
				jobs[i] = engine.Job{Gen: f.Gen, Config: cfg}
				if tr != nil {
					// Solve phase spans go to the benchmark's trace; the
					// engine's own trace keeps only its job spans.
					jobs[i].Trace = tr.tk
				}
			}
			var res []engine.Result
			tr.span("engine.Run", "batch", ci, func() { res = eng.Run(jobs) })
			for i, rs := range res {
				r.Attempted++
				if rs.Err != nil || rs.Degraded {
					r.fail("traced %s %s: err %v degraded %v", files[i].Name, name, rs.Err, rs.Degraded)
					continue
				}
				t := rs.Sol.Telemetry
				p.offline[ci] += t.Offline
				p.propagate[ci] += t.Propagate
				p.collapse[ci] += t.Collapse
				p.firings += t.Firings.Total()
				p.worklistPeak = max(p.worklistPeak, t.WorklistPeak)
				p.solutionBytes += rs.Sol.ApproxBytes()
			}
			st := eng.Stats()
			p.cpu += st.CPU
			p.busy += st.Wall
			p.workers = st.Workers
		}
		p.wall = time.Since(start)
		p.allocBytes = allocBytes() - a0
		return p
	}
	runtime.GC()
	plain := run(nil, nil)
	runtime.GC()
	tr := newTracer("batch-solve")
	jobTrace := obs.New("batch-solve-jobs", 1<<14)
	traced := run(tr, jobTrace)
	if plain.firings != traced.firings || plain.worklistPeak != traced.worklistPeak || plain.solutionBytes != traced.solutionBytes {
		r.fail("batch counts differ between two passes: firings %d/%d, worklist peak %d/%d, solution bytes %d/%d",
			plain.firings, traced.firings, plain.worklistPeak, traced.worklistPeak, plain.solutionBytes, traced.solutionBytes)
	}
	qw, n, err := jobQueueWait(jobTrace)
	if err != nil {
		return err
	}
	if n != len(files)*len(tableVConfigs) {
		r.fail("engine job trace holds %d job spans, want %d", n, len(files)*len(tableVConfigs))
	}
	r.add("engine.queue_wait_ms", qw, "ms", n)
	r.add("engine.busy_ratio", traced.cpu.Seconds()/(traced.busy.Seconds()*float64(traced.workers)), "ratio", len(tableVConfigs))
	for ci, c := range tableVConfigs {
		s := configSlug(c.Name)
		r.add("core.offline_ms."+s, ms(traced.offline[ci]), "ms", len(files))
		r.add("core.propagate_ms."+s, ms(traced.propagate[ci]), "ms", len(files))
		r.add("core.collapse_ms."+s, ms(traced.collapse[ci]), "ms", len(files))
	}
	r.add("core.firings", float64(traced.firings), "count", 0)
	r.add("core.worklist_peak", float64(traced.worklistPeak), "count", 0)
	r.add("core.solution_mb", float64(traced.solutionBytes)/(1<<20), "MB", 0)
	r.add("core.alloc_mb", float64(traced.allocBytes)/(1<<20), "MB", 0)
	r.add("obs.overhead_pct.batch-solve", overheadPct(traced.wall, plain.wall), "%", 2)
	return tr.write("batch-solve")
}

// jobQueueWait averages the queue_wait_us argument of the engine's job
// spans (submission to worker pickup).
func jobQueueWait(t *obs.Trace) (float64, int, error) {
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, err
	}
	sum, n := 0.0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Name != "job" || ev.Phase != "X" {
			continue
		}
		if us, ok := ev.Args["queue_wait_us"].(float64); ok {
			sum += us
			n++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n) / 1e3, n, nil
}

// serveLayers accumulates per-request layer times of the serve replay.
// wall is the sum of the replayed requests' own times, as the handler
// replay sums its handler times.
type serveLayers struct {
	parse, hash, generate, engineSelf, solve, query time.Duration
	misses, diskHits                                int
	instrs                                          int
	wall                                            time.Duration
	answers                                         [][]byte
	solved                                          map[string]*engine.Result
}

func traceServe(e *env, r *report) error {
	in, err := setupServeInput(e.Seed)
	if err != nil {
		return err
	}
	n := traceServeRequests
	if err := serveCounters(e, r, in, n); err != nil {
		return err
	}

	handler, allocs, hAnswers, err := serveHandlerReplay(e, r, in, n)
	if err != nil {
		return err
	}
	plain, err := serveLayerReplay(e, r, in, n, nil, "plain")
	if err != nil {
		return err
	}
	tr := newTracer("serve-solve")
	traced, err := serveLayerReplay(e, r, in, n, tr, "traced")
	if err != nil {
		return err
	}
	if plain.misses != traced.misses || plain.diskHits != traced.diskHits {
		r.fail("serve replay hit pattern differs: misses %d/%d, disk hits %d/%d", plain.misses, traced.misses, plain.diskHits, traced.diskHits)
	}
	for i := range hAnswers {
		if !sameAnswer(hAnswers[i], traced.answers[i]) {
			r.fail("request %d: handler and layer replay answer differently", i)
		}
	}
	save, load, nsaved, err := storeProbe(e, tr, traced.solved)
	if err != nil {
		return err
	}

	// Both totals the reconciliation uses are untraced: the handler
	// replay and the plain layer replay. The traced replay only splits
	// the plain total between the layers: each traced layer time is
	// scaled by plain/traced, which takes the spans' own cost out.
	// serve.self_ms is what the handler spends beyond the layers.
	scale := plain.wall.Seconds() / traced.wall.Seconds()
	per := func(d time.Duration) float64 { return ms(d) * scale / float64(n) }
	layers := per(traced.parse) + per(traced.hash) + per(traced.generate) + per(traced.engineSelf) + per(traced.solve) + per(traced.query)
	handlerMs := ms(handler) / float64(n)
	self := handlerMs - layers
	if self < 0 {
		r.fail("serve.self_ms %.4f < 0: the layers (%.4f ms per request, untraced) took longer than the handler (%.4f ms)", self, layers, handlerMs)
	}
	r.add("ir.parse_ms", per(traced.parse), "ms", n)
	r.add("ir.parse_ns_per_instr", 1e6*per(traced.parse)*float64(n)/float64(traced.instrs), "ns", n)
	r.add("engine.hash_ms", per(traced.hash), "ms", n)
	r.add("core.generate_ms", per(traced.generate), "ms", n)
	r.add("engine.self_ms", per(traced.engineSelf), "ms", n)
	r.add("core.solve_ms", per(traced.solve), "ms", n)
	r.add("alias.query_ms", per(traced.query), "ms", n)
	r.add("serve.handler_ms", handlerMs, "ms", n)
	r.add("serve.self_ms", self, "ms", n)
	r.add("serve.alloc_kb_per_req", float64(allocs)/1024/float64(n), "KB", n)
	r.add("store.save_ms", save, "ms", nsaved)
	r.add("store.load_ms", load, "ms", nsaved)
	r.add("obs.overhead_pct.serve-solve", overheadPct(traced.wall, plain.wall), "%", n)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"serve reconciliation per request: handler %.4f ms = parse %.4f + hash %.4f + generate %.4f + engine %.4f + solve %.4f + query %.4f + serve self %.4f",
		handlerMs, per(traced.parse), per(traced.hash), per(traced.generate), per(traced.engineSelf), per(traced.solve), per(traced.query), self))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"serve layer replay per request: untraced %.4f ms, traced %.4f ms (layer split scaled by %.4f)",
		ms(plain.wall)/float64(n), ms(traced.wall)/float64(n), scale))
	return tr.write("serve-solve")
}

// serveCounters sends the first n requests of the stream to a pipserve
// process on two connections and reads its /metrics counters.
func serveCounters(e *env, r *report, in *serveInput, n int) error {
	sr, err := setupServe(e, 0)
	if err != nil {
		return err
	}
	defer sr.Srv.stop()
	done, _, _ := closedLoop(serveConns, time.Hour, streamWorkers(in, n, sr.Srv.URL))
	for _, s := range done {
		r.Attempted++
		if s.Status != http.StatusOK {
			r.fail("traced serve request %d: status %d %s", s.Op, s.Status, s.Err)
		}
	}
	prom, err := scrape(sr.Srv.URL + "/metrics")
	if err != nil {
		return err
	}
	jobs := prom["pip_engine_jobs_total"]
	r.add("engine.cache_hit_ratio", prom["pip_cache_hits_total"]/jobs, "ratio", int(jobs))
	r.add("engine.disk_hit_ratio", prom["pip_store_hits_total"]/jobs, "ratio", int(jobs))
	r.add("engine.evictions", prom["pip_cache_evictions_total"], "count", 0)
	r.add("store.flushed", prom["pip_store_flushed_total"], "count", 0)
	r.add("store.disk_hits", prom["pip_store_hits_total"], "count", 0)
	r.add("obs.traces_resident", prom["pip_traces"], "count", 0)
	qn := prom["pip_queue_wait_seconds_count"]
	r.add("serve.queue_wait_ms", 1e3*prom["pip_queue_wait_seconds_sum"]/max(qn, 1), "ms", int(qn))
	return nil
}

// scrape reads unlabelled samples from a Prometheus text exposition.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	for _, k := range []string{"pip_engine_jobs_total", "pip_cache_hits_total", "pip_traces", "pip_queue_wait_seconds_count"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%s: no %s sample", url, k)
		}
	}
	return out, nil
}

// serveHandlerReplay sends the first n requests, after the warm-up,
// through serve.Server.Handler() in-process and returns the summed
// handler time, the bytes allocated and the answers. Its engine has one
// worker, as the layer replay's.
func serveHandlerReplay(e *env, r *report, in *serveInput, n int) (time.Duration, uint64, [][]byte, error) {
	srv := serve.New(serve.Options{
		Config:         pip.DefaultConfig(),
		HasConfig:      true,
		Workers:        1,
		CacheEntries:   serveCacheEntries,
		Retries:        2,
		WatchdogFactor: 4,
	})
	if err := srv.OpenStore(filepath.Join(e.Work, "trace-handler-store")); err != nil {
		return 0, 0, nil, err
	}
	defer func() {
		_ = srv.Shutdown(context.Background())
		_ = srv.CloseStore()
	}()
	h := srv.Handler()
	call := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	for _, hot := range in.Hot {
		call("/v1/solve", in.Pool[hot].SolveBody)
	}
	var total time.Duration
	var allocs uint64
	answers := make([][]byte, n)
	for i := 0; i < n; i++ {
		rq := in.Stream[i]
		path, body := "/v1/solve", in.Pool[rq.Mod].SolveBody
		if rq.Alias {
			path, body = "/v1/alias", in.Pool[rq.Mod].AliasBody
		}
		a0 := allocBytes()
		start := time.Now()
		rec := call(path, body)
		total += time.Since(start)
		allocs += allocBytes() - a0
		r.Attempted++
		if rec.Code != http.StatusOK {
			r.fail("in-process handler request %d: status %d", i, rec.Code)
		}
		answers[i] = rec.Body.Bytes()
	}
	return total, allocs, answers, nil
}

// lru mirrors the engine's solution cache (a plain LRU) so the replay
// knows which requests will miss memory and need constraint generation;
// the engine's own CacheHit flag is checked against it.
type lru struct {
	cap  int
	tick int
	last map[string]int
}

// touch records a use of key and reports whether it was resident.
func (c *lru) touch(key string) bool {
	_, hit := c.last[key]
	c.tick++
	c.last[key] = c.tick
	if len(c.last) > c.cap {
		oldest, at := "", c.tick+1
		for k, t := range c.last {
			if t < at {
				oldest, at = k, t
			}
		}
		delete(c.last, oldest)
	}
	return hit
}

// serveLayerReplay replays the first n requests through the layers'
// public functions in the order the handler calls them: parse, module
// hash, (on a memory miss) constraint generation, the engine with its
// cache and store, the query calls and the JSON encoding.
func serveLayerReplay(e *env, r *report, in *serveInput, n int, tr *tracer, tag string) (*serveLayers, error) {
	cfg := pip.DefaultConfig()
	eng := engine.New(engine.Options{Workers: 1, Cache: true, CacheEntries: serveCacheEntries, Retry: engine.RetryPolicy{Max: 2}})
	st, err := store.Open(filepath.Join(e.Work, "trace-layer-store-"+tag))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	eng.SetStore(st)
	mirror := &lru{cap: serveCacheEntries, last: map[string]int{}}
	out := &serveLayers{answers: make([][]byte, n), solved: map[string]*engine.Result{}}

	one := func(i int, rq streamReq, timed bool) error {
		pm := in.Pool[rq.Mod]
		var m *ir.Module
		var key string
		var gen *core.Gen
		var res engine.Result
		var ans []byte
		var perr error
		dParse := tr.span("ir.Parse", "serve", i, func() { m, perr = ir.Parse(pm.MIR) })
		if perr != nil {
			return perr
		}
		dHash := tr.span("engine.ModuleHash", "serve", i, func() { key = engine.CacheKey(engine.ModuleHash(m), cfg) })
		miss := !mirror.touch(key)
		var dGen time.Duration
		if miss {
			dGen = tr.span("core.Generate", "serve", i, func() { gen = core.Generate(m) })
		}
		dRun := tr.span("engine.RunOne", "serve", i, func() {
			res = eng.RunOne(engine.Job{Key: key, Module: m, Gen: gen, Config: cfg})
		})
		if res.Err != nil || res.Degraded {
			return fmt.Errorf("%s: err %v degraded %v", pm.Name, res.Err, res.Degraded)
		}
		if memHit := res.CacheHit && !res.DiskHit; memHit == miss {
			return fmt.Errorf("%s: engine memory hit %v, LRU mirror predicted %v", pm.Name, memHit, !miss)
		}
		var a *answerJSON
		dQuery := tr.span("alias.Query", "serve", i, func() { a = queryAnswer(res.Gen, res.Sol, pm, rq.Alias) })
		// Encoding is the serve layer's own work: timed in the trace but
		// left inside serve.self_ms.
		var merr error
		tr.span("json.Marshal", "serve", i, func() { ans, merr = json.Marshal(a) })
		if merr != nil {
			return merr
		}
		if !timed {
			return nil
		}
		out.parse += dParse
		out.hash += dHash
		out.generate += dGen
		out.query += dQuery
		if !res.CacheHit {
			out.solve += res.Duration
			out.engineSelf += dRun - res.Duration
			out.solved[key] = &res
		} else {
			out.engineSelf += dRun
		}
		if miss {
			out.misses++
		}
		if res.DiskHit {
			out.diskHits++
		}
		out.instrs += pm.Instrs
		out.answers[i] = ans
		return nil
	}
	for _, hot := range in.Hot {
		if err := one(-1, streamReq{Mod: hot}, false); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		r.Attempted++
		start := time.Now()
		err := one(i, in.Stream[i], true)
		out.wall += time.Since(start)
		if err != nil {
			r.fail("layer replay request %d: %v", i, err)
		}
	}
	return out, nil
}

// queryAnswer answers a request the way the handler does — points-to
// sets of the named values and the escaped set, or alias verdicts —
// through the core and alias layers.
func queryAnswer(gen *core.Gen, sol *core.Solution, pm *poolModule, aliasReq bool) *answerJSON {
	m := gen.Module
	a := &answerJSON{}
	if aliasReq {
		an := alias.Combined{alias.NewBasicAA(m), alias.NewAndersen(gen, sol)}
		for _, p := range pm.Pairs {
			va, vb := lookupValue(m, p[0]), lookupValue(m, p[1])
			x := aliasAnswer{A: p[0], B: p[1]}
			if va == nil || vb == nil {
				x.Error = "unknown value"
			} else {
				x.Result = an.Alias(va, 1, vb, 1).String()
			}
			a.Answers = append(a.Answers, x)
		}
	} else {
		a.PointsTo = map[string]ptsEntry{}
		for _, q := range pm.Queries {
			id, ok := varOf(gen, lookupValue(m, q))
			if !ok {
				a.PointsTo[q] = ptsEntry{Error: "no points-to set"}
				continue
			}
			e := ptsEntry{Targets: []string{}}
			for _, x := range sol.PointsTo(id) {
				if x == core.OmegaPointee {
					e.External = true
					continue
				}
				e.Targets = append(e.Targets, gen.Problem.Names[x])
			}
			sort.Strings(e.Targets)
			a.PointsTo[q] = e
		}
		for _, x := range sol.ExternalSet() {
			a.Escaped = append(a.Escaped, gen.Problem.Names[x])
		}
		sort.Strings(a.Escaped)
	}
	return a
}

// lookupValue resolves "global" and "func.local" names in a module.
func lookupValue(m *ir.Module, name string) ir.Value {
	if fn, local, ok := strings.Cut(name, "."); ok {
		f := m.Func(fn)
		if f == nil {
			return nil
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IName == local {
					return in
				}
			}
		}
		return nil
	}
	if g := m.Global(name); g != nil {
		return g
	}
	return nil
}

// varOf maps a value to the variable holding its points-to set: a
// global's or a stack slot's memory cell, else the register's variable.
func varOf(gen *core.Gen, v ir.Value) (core.VarID, bool) {
	switch val := v.(type) {
	case nil:
		return 0, false
	case *ir.Global:
		id, ok := gen.MemOf[val]
		return id, ok
	case *ir.Instr:
		if val.Op == ir.OpAlloca {
			id, ok := gen.MemOf[val]
			return id, ok
		}
	}
	id, ok := gen.VarOf[v]
	return id, ok
}

// sameAnswer compares a handler response with a replay answer on the
// answer fields (points-to sets, escaped set, alias verdicts).
func sameAnswer(handler, replay []byte) bool {
	var a, b answerJSON
	if json.Unmarshal(handler, &a) != nil || json.Unmarshal(replay, &b) != nil {
		return false
	}
	if len(a.Answers) != len(b.Answers) {
		return false
	}
	for i := range a.Answers {
		if a.Answers[i].Result != b.Answers[i].Result {
			return false
		}
	}
	return reflect.DeepEqual(a.PointsTo, b.PointsTo) && reflect.DeepEqual(nonNil(a.Escaped), nonNil(b.Escaped))
}

// storeProbe saves every solution the replay solved into a fresh store
// and loads each back, one span per call, and returns the mean save and
// load times in ms.
func storeProbe(e *env, tr *tracer, solved map[string]*engine.Result) (float64, float64, int, error) {
	st, err := store.Open(filepath.Join(e.Work, "trace-store-probe"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	keys := make([]string, 0, len(solved))
	for k := range solved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var save, load time.Duration
	for i, k := range keys {
		var err error
		save += tr.span("store.Save", "engine", i, func() { err = st.Save(k, solved[k].Sol) })
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for i, k := range keys {
		ok := false
		load += tr.span("store.Load", "engine", i, func() { _, ok = st.Load(k, solved[k].Gen.Problem) })
		if !ok {
			return 0, 0, 0, fmt.Errorf("store probe: %s did not load back", k)
		}
	}
	if len(keys) == 0 {
		return 0, 0, 0, nil
	}
	nk := float64(len(keys))
	return ms(save) / nk, ms(load) / nk, len(keys), nil
}

// editLayers accumulates the edit replay's layer times and path counts.
type editLayers struct {
	compile, diff          time.Duration
	bytes, resolves, edits int
	resumed, fallbacks     int
	reusedConstraints      int
	wall                   time.Duration
}

func traceEdit(e *env, r *report) error {
	scripts := setupEditScripts(e.Seed)
	hop, nhop, err := routerHop(r, scripts)
	if err != nil {
		return err
	}
	plain, err := editLayerReplay(r, scripts, nil)
	if err != nil {
		return err
	}
	tr := newTracer("edit-sessions")
	traced, err := editLayerReplay(r, scripts, tr)
	if err != nil {
		return err
	}
	if plain.resumed != traced.resumed || plain.fallbacks != traced.fallbacks || plain.reusedConstraints != traced.reusedConstraints {
		r.fail("incremental path counts differ between two replays: %+v vs %+v", plain, traced)
	}
	r.add("cfront.compile_ms", ms(traced.compile)/float64(traced.resolves), "ms", traced.resolves)
	r.add("cfront.ns_per_byte", float64(traced.compile.Nanoseconds())/float64(traced.bytes), "ns", traced.resolves)
	r.add("incr.diff_ms", ms(traced.diff)/float64(traced.edits), "ms", traced.edits)
	r.add("incr.resumed", float64(traced.resumed), "count", traced.edits)
	r.add("incr.fallbacks", float64(traced.fallbacks), "count", traced.edits)
	r.add("incr.reused_constraints", float64(traced.reusedConstraints), "count", traced.edits)
	r.add("router.hop_ms", hop, "ms", nhop)
	r.add("obs.overhead_pct.edit-sessions", overheadPct(traced.wall, plain.wall), "%", traced.resolves)
	return tr.write("edit-sessions")
}

// routerHop plays every session once through a serve.Router in front of
// an in-process backend and returns the mean router time not spent in
// the backend's handler.
func routerHop(r *report, scripts []*editScript) (float64, int, error) {
	backend := serve.New(serve.Options{})
	defer func() { _ = backend.Shutdown(context.Background()) }()
	bh := backend.Handler()
	var inBackend atomic.Int64
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		bh.ServeHTTP(w, req)
		if req.URL.Path == "/v1/resolve" {
			inBackend.Store(int64(time.Since(start)))
		}
	}))
	defer bsrv.Close()
	rt := serve.NewRouter(serve.RouterOptions{Backends: []string{bsrv.URL}})
	defer rt.Close()
	h := rt.Handler()
	var hop time.Duration
	n := 0
	for _, s := range scripts {
		handle := ""
		for v := range s.Versions {
			body, err := resolveBody(s, v, handle)
			if err != nil {
				return 0, 0, err
			}
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/resolve", bytes.NewReader(body)))
			total := time.Since(start)
			r.Attempted++
			var a answerJSON
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &a) != nil || a.Generation != v {
				r.fail("router replay %s version %d: status %d", s.Name, v, rec.Code)
				break
			}
			handle = a.Handle
			hop += total - time.Duration(inBackend.Load())
			n++
		}
	}
	return ms(hop) / float64(max(n, 1)), n, nil
}

// editLayerReplay plays every session once through the layers the
// resolve handler calls: cfront.Compile, core.Generate, the summary diff
// and the engine's incremental path.
func editLayerReplay(r *report, scripts []*editScript, tr *tracer) (*editLayers, error) {
	cfg := core.MustParseConfig(editConfig)
	eng := engine.New(engine.Options{Workers: 1, Cache: true, CacheEntries: serve.DefaultCacheEntries})
	out := &editLayers{}
	runtime.GC()
	start := time.Now()
	req := 0
	for _, s := range scripts {
		var st *incr.State
		var prev *core.ProblemSummary
		for v, src := range s.Versions {
			var m *ir.Module
			var gen *core.Gen
			var err error
			out.compile += tr.span("cfront.Compile", "resolve", req, func() { m, err = pip.CompileC(s.Name, src) })
			if err != nil {
				return nil, err
			}
			tr.span("core.Generate", "resolve", req, func() { gen = core.Generate(m) })
			var sum *core.ProblemSummary
			out.diff += tr.span("incr.Diff", "resolve", req, func() {
				sum = core.BuildSummary(gen.Problem)
				if prev != nil {
					core.DiffSummaries(prev, sum)
				}
			})
			prev = sum
			var res engine.Result
			tr.span("engine.RunIncremental", "resolve", req, func() {
				res, st = eng.RunIncremental(st, engine.Job{Module: m, Gen: gen, Config: cfg})
			})
			r.Attempted++
			if res.Err != nil || res.Degraded || res.Incremental == nil {
				r.fail("edit replay %s version %d: err %v degraded %v", s.Name, v, res.Err, res.Degraded)
				break
			}
			out.bytes += len(src)
			out.resolves++
			req++
			if v == 0 {
				continue
			}
			out.edits++
			inc := res.Incremental
			switch {
			case inc.Resumed:
				out.resumed++
			case !inc.ReusedSolution:
				out.fallbacks++
			}
			out.reusedConstraints += inc.Reused
		}
	}
	out.wall = time.Since(start)
	return out, nil
}
