// Command pipserve is the long-running analysis service: an HTTP/JSON
// daemon that accepts mini-C or MIR modules and answers points-to and
// alias queries from a shared, cached analysis engine.
//
// Usage:
//
//	pipserve [-addr HOST:PORT] [-config CFG] [-budget B] [-cache-entries N]
//	         [-concurrent N] [-queue N] [-workers N] [-store DIR]
//	pipserve -router -backends URL,URL,...   (shard router mode)
//	pipserve -router -backends-file FILE     (router with SIGHUP-reloaded membership)
//	pipserve -smoke        (ephemeral port, end-to-end requests, exit)
//
// Endpoints:
//
//	POST /v1/solve   {"c": "...", "queries": ["p"]}      points-to sets
//	POST /v1/alias   {"c": "...", "pairs": [["p","q"]]}  alias verdicts
//	POST /v1/resolve {"c": "...", "handle": "..."}       incremental sessions
//	GET  /healthz    liveness; 503 while draining
//	GET  /metrics    Prometheus text exposition (router mode serves its
//	                 own families)
//	GET  /debug/trace?id=ID  a trace's spans as Chrome trace_event JSON;
//	                 in -router mode, merged across the router and every
//	                 backend that saw the trace ID
//	GET  /debug/flightrec    recent anomaly dumps from the flight recorder
//	GET  /debug/pprof/*  Go profiling, only with -pprof
//	POST /admin/backends     (router mode) {"op":"add|drain|remove","backend":URL}
//	GET  /debug/ring         (router mode) membership generation + keyspace ownership
//
// -store DIR attaches a persistent solution store: solutions are flushed
// on eviction and drain, and a restarted pipserve over the same directory
// answers its previous working set from fingerprint-verified disk hits
// without re-solving.
//
// -router turns the process into a sharding front door over the -backends
// list: modules are placed by consistent hash (so each shard's cache and
// store stay hot for its keyspace), failed shards are rerouted around,
// and with every shard down the router answers the sound Ω-degradation
// locally rather than dropping requests.
//
// Router membership is dynamic: -backends-file names a file of backend
// URLs (one per line, # comments) re-read on SIGHUP and reconciled
// against the live cluster without a restart, and POST /admin/backends
// adds, drains, or removes single backends at runtime. An active health
// prober opens a dead backend's breaker (and closes it on recovery)
// without waiting for user traffic to pay for the discovery.
//
// SIGINT/SIGTERM starts a graceful drain: new requests get 503 and the
// process exits once every in-flight solve has answered (or after
// -drain-timeout).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/obs"
	"github.com/pip-analysis/pip/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pipserve:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing, so tests can drive the full
// lifecycle — flags, listener, signal-triggered drain — in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pipserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address")
	configName := fs.String("config", pip.DefaultConfig().String(),
		"default solver configuration (requests may override with config/?config=)")
	budgetStr := fs.String("budget", "",
		"default solve budget, e.g. 100ms, 5000f, or 100ms,5000f; exhausted budgets yield the sound Ω-degraded solution")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", serve.DefaultCacheEntries,
		"solution cache capacity (LRU eviction beyond it)")
	concurrent := fs.Int("concurrent", serve.DefaultMaxConcurrent,
		"max solves running at once")
	queue := fs.Int("queue", serve.DefaultMaxQueue,
		"max requests waiting for a solve slot before 429")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight solves")
	quiet := fs.Bool("quiet", false, "disable per-request logging")
	enablePprof := fs.Bool("pprof", false,
		"expose Go profiling under /debug/pprof/ (off by default: profiles leak internals, keep the port private)")
	tracePath := fs.String("trace", "",
		"write a Chrome trace_event JSON file of per-request solve spans on shutdown (open in Perfetto or chrome://tracing)")
	traceCheckpoint := fs.Duration("trace-checkpoint", 30*time.Second,
		"with -trace, also checkpoint the trace file this often (and on every flight-recorder dump) so an unclean exit keeps the tail; 0 writes only on clean shutdown")
	flightDir := fs.String("flightrec", "",
		"directory for flight-recorder anomaly dump files (dumps stay in memory at /debug/flightrec either way)")
	checkTrace := fs.String("check-trace", "",
		"validate FILE as Chrome trace_event JSON (as written by -trace or /debug/trace) and exit")
	smoke := fs.Bool("smoke", false,
		"self-test: listen on an ephemeral port, run end-to-end requests, drain, exit")
	retries := fs.Int("retries", 2,
		"re-solves of transiently failed jobs (recovered panics, injected faults); 0 disables retry")
	watchdogFactor := fs.Int("watchdog-factor", 4,
		"abandon solves stuck past N× their wall deadline and answer with the sound Ω-degradation; 0 disables (only fires for budgeted solves)")
	memSoftLimit := fs.Uint64("mem-soft-limit", 0,
		"heap bytes beyond which new solves switch to -tight-budget; 0 disables the guard")
	tightBudgetStr := fs.String("tight-budget", "",
		"budget applied under memory pressure, e.g. 50ms,1000f (componentwise minimum with the request budget)")
	noBreaker := fs.Bool("no-breaker", false,
		"disable the circuit breaker (by default the server sheds load with 503 when the recent failure/degradation rate crosses 50%)")
	chaosSpec := fs.String("chaos", "",
		"arm deterministic fault injection from a spec, e.g. seed=42;serve.handler=error:0.01 (see the fault model section of DESIGN.md)")
	storeDir := fs.String("store", "",
		"persistent solution store directory: solutions flush on eviction and drain, and a restart over the same directory serves its previous working set from verified disk hits")
	routerMode := fs.Bool("router", false,
		"run as a shard router over -backends instead of a solving server")
	backendList := fs.String("backends", "",
		"comma-separated pipserve base URLs to shard across in -router mode, e.g. http://10.0.0.1:7411,http://10.0.0.2:7411")
	backendsFile := fs.String("backends-file", "",
		"file of pipserve base URLs (one per line, # comments) for -router mode; SIGHUP re-reads it and reconciles cluster membership without a restart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *backendList != "" && !*routerMode {
		return fmt.Errorf("-backends requires -router")
	}
	if *backendsFile != "" && !*routerMode {
		return fmt.Errorf("-backends-file requires -router")
	}
	if *backendList != "" && *backendsFile != "" {
		return fmt.Errorf("-backends and -backends-file are mutually exclusive")
	}
	if *routerMode {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if solverFlags[f.Name] {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("%s: solving-server flags; the router runs no solver and holds no solutions", strings.Join(set, " "))
		}
	}

	if *checkTrace != "" {
		data, err := os.ReadFile(*checkTrace)
		if err != nil {
			return err
		}
		if err := obs.CheckChrome(data); err != nil {
			return fmt.Errorf("check-trace %s: %w", *checkTrace, err)
		}
		fmt.Fprintf(stdout, "trace ok: %s\n", *checkTrace)
		return nil
	}

	if *chaosSpec != "" {
		disarm, err := pip.ArmChaos(*chaosSpec)
		if err != nil {
			return err
		}
		defer disarm()
	}

	var logTo io.Writer
	if !*quiet {
		logTo = stderr
	}
	if *routerMode {
		return runRouter(*addr, *backendList, *backendsFile, *flightDir, *drainTimeout, *smoke, logTo, stdout, stderr)
	}

	cfg, err := pip.ParseConfig(*configName)
	if err != nil {
		return err
	}
	opts := serve.Options{
		Config:         cfg,
		HasConfig:      true,
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		MaxConcurrent:  *concurrent,
		MaxQueue:       *queue,
		EnablePprof:    *enablePprof,
		Retries:        *retries,
		WatchdogFactor: *watchdogFactor,
		MemSoftLimit:   *memSoftLimit,
		Breaker:        serve.BreakerOptions{Disabled: *noBreaker},
		LogWriter:      logTo,
		FlightDir:      *flightDir,
	}
	if *tightBudgetStr != "" {
		b, err := pip.ParseBudget(*tightBudgetStr)
		if err != nil {
			return err
		}
		opts.TightBudget = b
	}
	var tr *pip.Trace
	var checkpoint func()
	if *tracePath != "" {
		tr = pip.NewTrace("pipserve", 1<<16)
		opts.Trace = tr
		// Checkpoint writes are atomic (temp file + rename), so a reader
		// or a crash mid-write never sees a torn trace. Wiring the same
		// checkpoint into OnFlightDump means an anomaly snapshots the
		// trace tail to disk even if the process dies moments later.
		path := *tracePath
		checkpoint = func() {
			if err := tr.WriteChromeFile(path); err != nil {
				fmt.Fprintln(stderr, "pipserve: trace checkpoint:", err)
			}
		}
		opts.OnFlightDump = func(string) { checkpoint() }
	}
	if *budgetStr != "" {
		b, err := pip.ParseBudget(*budgetStr)
		if err != nil {
			return err
		}
		opts.DefaultBudget = b
	}
	s := serve.New(opts)
	if *storeDir != "" {
		if err := s.OpenStore(*storeDir); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fmt.Fprintf(stdout, "persistent store at %s\n", *storeDir)
	}

	if checkpoint != nil && *traceCheckpoint > 0 {
		tick := time.NewTicker(*traceCheckpoint)
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-tick.C:
					checkpoint()
				case <-done:
					return
				}
			}
		}()
		defer func() { tick.Stop(); close(done) }()
	}

	var check func(base string) error
	if *smoke {
		check = func(base string) error {
			if err := smokeCheck(base, nil, "pip_solve_latency_seconds_count 1", "pip_requests_accepted_total 1"); err != nil {
				return err
			}
			return smokeRawHits(base)
		}
	}
	drain := func(ctx context.Context) error {
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	}
	if err := serveLoop(*addr, "config "+cfg.String(), s.Handler(), check, drain, *drainTimeout, stdout); err != nil {
		return err
	}
	if *storeDir != "" {
		// The drain already flushed; CloseStore re-syncs and releases the
		// log file so the next process start finds a clean store.
		if err := s.CloseStore(); err != nil {
			return fmt.Errorf("store close: %w", err)
		}
	}
	if tr != nil {
		if err := tr.WriteChromeFile(*tracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "wrote trace (%d records, %d dropped) to %s\n",
			tr.Len(), tr.Dropped(), *tracePath)
	}
	fmt.Fprintln(stdout, "pipserve stopped")
	return nil
}

// readBackendsFile parses a -backends-file: one base URL per line (or
// comma-separated), blank lines and # comments ignored.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var backends []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, b := range strings.Split(line, ",") {
			if b = strings.TrimSpace(b); b != "" {
				backends = append(backends, b)
			}
		}
	}
	return backends, nil
}

// runRouter is the -router mode main loop: a sharding front door over
// the -backends list or a SIGHUP-reloaded -backends-file. In -smoke
// mode with no backends it starts one in-process solving backend on an
// ephemeral port, so the smoke check exercises real forwarding end to
// end.
func runRouter(addr, backendList, backendsFile, flightDir string, drainTimeout time.Duration, smoke bool, logTo, stdout, stderr io.Writer) error {
	var backends []string
	if backendsFile != "" {
		var err error
		if backends, err = readBackendsFile(backendsFile); err != nil {
			return fmt.Errorf("backends-file: %w", err)
		}
		if len(backends) == 0 {
			return fmt.Errorf("backends-file %s: no backend URLs", backendsFile)
		}
	}
	for _, b := range strings.Split(backendList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	var drainBackend func() error
	if len(backends) == 0 {
		if !smoke {
			return fmt.Errorf("-router requires -backends or -backends-file")
		}
		// Smoke backend: a real solving server inside this process.
		bs := serve.New(serve.Options{})
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		bSrv := &http.Server{Handler: bs.Handler()}
		go bSrv.Serve(bln)
		backends = []string{"http://" + bln.Addr().String()}
		drainBackend = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := bs.Shutdown(ctx); err != nil {
				return err
			}
			return bSrv.Shutdown(ctx)
		}
	}

	rt := serve.NewRouter(serve.RouterOptions{Backends: backends, LogWriter: logTo, FlightDir: flightDir})
	defer rt.Close()

	// SIGHUP re-reads the backends file and reconciles membership in
	// place: joined URLs start owning keys, departed ones are removed
	// (their keyspace reroutes), survivors keep breaker state and pins.
	if backendsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				urls, err := readBackendsFile(backendsFile)
				if err != nil {
					fmt.Fprintln(stderr, "pipserve: backends-file reload:", err)
					continue
				}
				added, removed, err := rt.SetBackends(urls)
				if err != nil {
					fmt.Fprintln(stderr, "pipserve: backends-file reload:", err)
					continue
				}
				fmt.Fprintf(stdout, "backends-file reloaded: +%d -%d (%d configured)\n",
					len(added), len(removed), len(urls))
			}
		}()
	}

	var check func(base string) error
	if smoke {
		check = func(base string) error {
			return smokeCheck(base, []string{`"router"`, `"backend-0"`}, "pip_router_forwarded_total 1")
		}
	}
	drain := func(context.Context) error { rt.Shutdown(); return nil }
	banner := fmt.Sprintf("router over %d backends", len(backends))
	if err := serveLoop(addr, banner, rt.Handler(), check, drain, drainTimeout, stdout); err != nil {
		return err
	}
	if drainBackend != nil {
		if err := drainBackend(); err != nil {
			return fmt.Errorf("backend drain: %w", err)
		}
	}
	fmt.Fprintln(stdout, "pipserve stopped")
	return nil
}

// solverFlags are the solving-server flags -router rejects: the router
// runs no solver, holds no solutions and writes no solve trace.
var solverFlags = map[string]bool{
	"trace": true, "trace-checkpoint": true, "pprof": true,
	"config": true, "budget": true, "tight-budget": true, "mem-soft-limit": true,
	"workers": true, "cache-entries": true, "concurrent": true, "queue": true,
	"retries": true, "watchdog-factor": true, "no-breaker": true, "store": true,
}

// serveLoop is the run loop of both modes: listen on addr (an ephemeral
// port when check is set), serve h, then run the smoke check or wait for
// SIGINT/SIGTERM, and shut down — drain first, then the HTTP server,
// both within drainTimeout.
func serveLoop(addr, banner string, h http.Handler, check func(base string) error, drain func(context.Context) error, drainTimeout time.Duration, stdout io.Writer) error {
	if check != nil {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "pipserve listening on %s (%s)\n", ln.Addr(), banner)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if check != nil {
		if err := check("http://" + ln.Addr().String()); err != nil {
			httpSrv.Close()
			return fmt.Errorf("smoke: %w", err)
		}
		fmt.Fprintln(stdout, "smoke ok")
	} else {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "signal received, draining")
		case err := <-serveErr:
			return err
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := drain(dctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// smokeCheck exercises either mode end to end: one solve with a
// points-to query under a caller-chosen request and trace ID (so a
// -trace run records a named lane), the request's trace read back from
// /debug/trace?id= (naming each of procs, the processes a router's
// merged trace must carry), /debug/flightrec, /healthz, and the
// Prometheus /metrics exposition, which must contain every line of
// metrics.
func smokeCheck(base string, procs []string, metrics ...string) error {
	body, err := json.Marshal(map[string]any{
		"name":    "smoke.c",
		"c":       smokeSrc,
		"queries": []string{"p"},
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest("POST", base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "smoke-1")
	req.Header.Set("X-Trace-Id", "smoke-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("solve: status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-1" {
		return fmt.Errorf("solve: request ID not echoed (got %q)", got)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "smoke-trace-1" {
		return fmt.Errorf("solve: trace ID not echoed (got %q)", got)
	}
	var solved struct {
		Degraded bool `json:"degraded"`
		PointsTo map[string]struct {
			Targets  []string `json:"targets"`
			External bool     `json:"external"`
		} `json:"points_to"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	pe, ok := solved.PointsTo["p"]
	if !ok || solved.Degraded || !pe.External || len(pe.Targets) == 0 {
		return fmt.Errorf("solve: unexpected answer %+v", solved)
	}

	traceBody, err := get(base + "/debug/trace?id=smoke-trace-1")
	if err != nil {
		return err
	}
	if err := obs.CheckChrome(traceBody); err != nil {
		return fmt.Errorf("/debug/trace: invalid trace: %w", err)
	}
	for _, proc := range procs {
		if !bytes.Contains(traceBody, []byte(proc)) {
			return fmt.Errorf("/debug/trace: merged trace missing process %s", proc)
		}
	}
	for _, path := range []string{"/debug/flightrec", "/healthz"} {
		if _, err := get(base + path); err != nil {
			return err
		}
	}
	text, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	if err := obs.CheckExposition(string(text)); err != nil {
		return fmt.Errorf("/metrics: invalid exposition: %w", err)
	}
	for _, want := range metrics {
		if !strings.Contains(string(text), want) {
			return fmt.Errorf("/metrics: missing %q:\n%s", want, text)
		}
	}
	return nil
}

const smokeSrc = "static int x;\nint *p = &x;\nextern void take(int**);\nvoid f() { take(&p); }\n"

// smokeRawHits posts the smoke module as MIR three times: the first
// request solves it, the repeats are answered by their raw text alone.
// The two repeats must get byte-identical bodies, and /metrics must
// count the raw hits.
func smokeRawHits(base string) error {
	m, err := pip.CompileC("smoke.c", smokeSrc)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"name": "smoke.mir", "mir": pip.PrintIR(m), "queries": []string{"p"}})
	if err != nil {
		return err
	}
	var answers [3][]byte
	for i := range answers {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		answers[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("MIR solve %d: status %d: %s", i+1, resp.StatusCode, answers[i])
		}
	}
	if !bytes.Equal(answers[1], answers[2]) {
		return fmt.Errorf("MIR solve: repeated answers differ:\n%s\n%s", answers[1], answers[2])
	}
	text, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "pip_cache_raw_hits_total "); ok {
			if n, err := strconv.ParseFloat(v, 64); err != nil || n < 1 {
				return fmt.Errorf("/metrics: pip_cache_raw_hits_total %s, want >= 1", v)
			}
			return nil
		}
	}
	return errors.New("/metrics: missing pip_cache_raw_hits_total")
}

// get fetches url and fails unless it answers 200.
func get(url string) ([]byte, error) {
	r, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, r.StatusCode, body)
	}
	return body, nil
}
