package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/engine"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/workload"
)

// Serve-solve traffic shape.
const (
	serveConns        = 2   // closed-loop connections
	serveHotModules   = 16  // modules in the hot set
	serveHotShare     = 0.5 // share of requests sent to the hot set
	serveAliasShare   = 0.2 // share of /v1/alias requests
	serveCacheEntries = 64  // pipserve -cache-entries, below the pool size
	serveStreamLen    = 1e5 // pre-drawn stream; a run uses a prefix
	serveQueries      = 4   // named globals and locals per /v1/solve
	servePairs        = 3   // pairs per /v1/alias
)

// servePool is the module pool: 184 modules, 109,542 MIR instructions.
// Like the batch corpus it is the same for every --seed; the seed draws
// the queries, the hot set and the request stream.
var servePool = workload.Options{Seed: 1, Scale: 0.05, SizeScale: 0.1, MaxInstrs: 4000}

// poolModule is one module of the pool with its two request bodies.
type poolModule struct {
	Name      string
	MIR       string
	Instrs    int
	Queries   []string
	Pairs     [][2]string
	SolveBody []byte
	AliasBody []byte
}

// streamReq is one request of the seeded stream.
type streamReq struct {
	Mod   int
	Alias bool
}

type serveInput struct {
	Pool   []*poolModule
	Hot    []int
	Stream []streamReq
}

type solveBody struct {
	Name    string      `json:"name"`
	MIR     string      `json:"mir,omitempty"`
	C       string      `json:"c,omitempty"`
	Config  string      `json:"config,omitempty"`
	Handle  string      `json:"handle,omitempty"`
	Queries []string    `json:"queries,omitempty"`
	Pairs   [][2]string `json:"pairs,omitempty"`
}

// setupServeInput generates the pool, picks each module's queries from
// its pointer-holding globals and locals, and draws the request stream.
func setupServeInput(seed int64) (*serveInput, error) {
	files := workload.GenerateCorpus(servePool)
	rng := rand.New(rand.NewSource(seed))
	in := &serveInput{Pool: make([]*poolModule, len(files))}
	for i, f := range files {
		pm := &poolModule{Name: f.Name, MIR: ir.Print(f.Module), Instrs: f.Module.NumInstrs()}
		globals, locals := pointerNames(f.Module)
		pm.Queries = append(pickSome(rng, globals, serveQueries/2), pickSome(rng, locals, serveQueries-serveQueries/2)...)
		if len(pm.Queries) == 0 {
			return nil, fmt.Errorf("%s: no pointer-holding values to query", f.Name)
		}
		vals := append(append([]string(nil), globals...), locals...)
		for k := 0; k < servePairs; k++ {
			pm.Pairs = append(pm.Pairs, [2]string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]})
		}
		var err error
		if pm.SolveBody, err = json.Marshal(solveBody{Name: pm.Name, MIR: pm.MIR, Queries: pm.Queries}); err != nil {
			return nil, err
		}
		if pm.AliasBody, err = json.Marshal(solveBody{Name: pm.Name, MIR: pm.MIR, Pairs: pm.Pairs}); err != nil {
			return nil, err
		}
		in.Pool[i] = pm
	}
	in.Hot = stratifiedPick(in.Pool, serveHotModules)
	in.Stream = make([]streamReq, serveStreamLen)
	for i := range in.Stream {
		mod := rng.Intn(len(in.Pool))
		if rng.Float64() < serveHotShare {
			mod = in.Hot[rng.Intn(len(in.Hot))]
		}
		in.Stream[i] = streamReq{Mod: mod, Alias: rng.Float64() < serveAliasShare}
	}
	return in, nil
}

// pointerNames lists the module's pointer-holding globals and named
// pointer-valued registers ("func.local"), the names /v1/solve accepts.
func pointerNames(m *ir.Module) (globals, locals []string) {
	gen := core.Generate(m)
	ptr := func(id core.VarID, ok bool) bool { return ok && gen.Problem.PtrCompat[id] }
	for _, g := range m.Globals {
		if id, ok := gen.MemOf[g]; ptr(id, ok) {
			globals = append(globals, g.GName)
		}
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IName == "" || in.Op == ir.OpAlloca || strings.Contains(f.FName, ".") {
					continue
				}
				if id, ok := gen.VarOf[in]; ptr(id, ok) {
					locals = append(locals, f.FName+"."+in.IName)
				}
			}
		}
	}
	return globals, locals
}

// pickSome returns up to k distinct elements of xs in a seeded order.
func pickSome(rng *rand.Rand, xs []string, k int) []string {
	perm := rng.Perm(len(xs))
	var out []string
	for _, p := range perm {
		if len(out) == k {
			break
		}
		out = append(out, xs[p])
	}
	return out
}

// stratifiedPick picks the median-size module of each of k size strata of
// the pool, so the hot set (and with it the hit latency) spans the pool's
// size range and is the same for every seed.
func stratifiedPick(pool []*poolModule, k int) []int {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pool[idx[a]].Instrs < pool[idx[b]].Instrs })
	out := make([]int, k)
	for s := 0; s < k; s++ {
		lo, hi := s*len(idx)/k, (s+1)*len(idx)/k
		out[s] = idx[(lo+hi)/2]
	}
	return out
}

// served is one completed request of a closed-loop run.
type served struct {
	Op      int // index into the run's operation list
	Status  int
	Latency time.Duration
	At      time.Duration // completion time since the window opened
	Body    [32]byte      // sha256 of the response body, a key of the body table
	Err     string
}

// loopWorker is one connection of a closed loop. next picks its next
// operation (false: none left) and is not timed; send performs it and
// returns the status and response body. A worker may keep state from one
// request to the next, as an editing session keeps its handle.
type loopWorker struct {
	next func() (op int, ok bool)
	send func(op int) (int, []byte, error)
}

// closedLoop runs conns workers that each send their next operation after
// the previous answer, until the window closes. Response bodies are kept
// once per distinct content.
func closedLoop(conns int, window time.Duration, newWorker func() loopWorker) ([]served, map[[32]byte][]byte, time.Duration) {
	var mu sync.Mutex
	var done []served
	bodies := map[[32]byte][]byte{}
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		lw := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []served
			for time.Now().Before(deadline) {
				op, ok := lw.next()
				if !ok {
					break
				}
				t := time.Now()
				status, body, err := lw.send(op)
				s := served{Op: op, Status: status, Latency: time.Since(t), At: time.Since(start)}
				if err != nil {
					s.Err = err.Error()
				}
				s.Body = sha256.Sum256(body)
				mu.Lock()
				if _, ok := bodies[s.Body]; !ok {
					bodies[s.Body] = body
				}
				mu.Unlock()
				mine = append(mine, s)
			}
			mu.Lock()
			done = append(done, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return done, bodies, time.Since(start)
}

// streamWorkers returns workers that share the serve stream's first nops
// requests in order, posting each to url.
func streamWorkers(in *serveInput, nops int, url string) func() loopWorker {
	c := newClient(serveConns)
	ctx := context.Background()
	var next atomic.Int64
	return func() loopWorker {
		return loopWorker{
			next: func() (int, bool) {
				op := int(next.Add(1) - 1)
				return op, op < nops
			},
			send: func(op int) (int, []byte, error) {
				rq := in.Stream[op]
				if rq.Alias {
					return post(ctx, c, url+"/v1/alias", in.Pool[rq.Mod].AliasBody)
				}
				return post(ctx, c, url+"/v1/solve", in.Pool[rq.Mod].SolveBody)
			},
		}
	}
}

// serveRun is a started serve-solve set-up: inputs plus a warm server.
type serveRun struct {
	In  *serveInput
	Srv *server
}

func setupServe(e *env, i int) (*serveRun, error) {
	in, err := setupServeInput(e.Seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.Pipserve, "-quiet",
		"-store", filepath.Join(e.Work, "store-"+strconv.Itoa(i)),
		"-cache-entries", strconv.Itoa(serveCacheEntries))
	if err != nil {
		return nil, err
	}
	// Warm-up: every hot module once, so the hot set is resident.
	c := newClient(1)
	for _, h := range in.Hot {
		status, body, err := post(context.Background(), c, srv.URL+"/v1/solve", in.Pool[h].SolveBody)
		if err != nil || status != http.StatusOK {
			srv.stop()
			return nil, fmt.Errorf("warm-up %s: status %d %v %.200s", in.Pool[h].Name, status, err, body)
		}
	}
	return &serveRun{In: in, Srv: srv}, nil
}

func runServe(e *env) (*report, error) {
	n := 0
	sr, setupS, err := timedSetups(func() (*serveRun, error) { n++; return setupServe(e, n) },
		func(sr *serveRun) { sr.Srv.stop() })
	if err != nil {
		return nil, err
	}
	defer sr.Srv.stop()
	in := sr.In
	runtime.GC()
	window := time.Duration(e.Seconds * float64(time.Second))
	done, bodies, wall := closedLoop(serveConns, window, streamWorkers(in, len(in.Stream), sr.Srv.URL))
	peak, err := sr.Srv.peakRSS()
	if err != nil {
		return nil, err
	}
	sr.Srv.stop()

	r := &report{Workload: "serve-solve"}
	exp := expectPool(in.Pool, r)
	var lat []float64
	var comp []completion
	var hits, disk int
	for _, s := range done {
		rq := in.Stream[s.Op]
		pm := in.Pool[rq.Mod]
		r.Attempted++
		if s.Err != "" || s.Status != http.StatusOK {
			r.fail("%s: status %d %s", pm.Name, s.Status, s.Err)
			continue
		}
		var got answerJSON
		if err := json.Unmarshal(bodies[s.Body], &got); err != nil {
			r.fail("%s: bad response: %v", pm.Name, err)
			continue
		}
		if msg := exp[rq.Mod].check(&got, rq.Alias); msg != "" {
			r.fail("%s: %s", pm.Name, msg)
			continue
		}
		if got.CacheHit {
			hits++
		}
		if got.DiskHit {
			disk++
		}
		lat = append(lat, ms(s.Latency))
		comp = append(comp, completion{At: s.At, Instrs: pm.Instrs})
	}
	r.add("setup_s", setupS, "s", setupRepeats)
	r.add("p50_ms", quantile(lat, 0.50), "ms", len(lat))
	r.add("p95_ms", quantile(lat, 0.95), "ms", len(lat))
	r.add("throughput_kinstr_s", sliceThroughput(comp, window), "kinstr/s", throughputSlices)
	r.add("peak_rss_mb", peak, "MB", 1)
	r.Notes = append(r.Notes, fmt.Sprintf("%d modules in the pool, %d hot; %d requests in %v: %d cache hits (%d from disk), %d distinct response bodies",
		len(in.Pool), len(in.Hot), len(done), wall.Round(time.Millisecond), hits, disk, len(bodies)))
	return r, nil
}

// answerJSON decodes both /v1/solve and /v1/alias responses.
type answerJSON struct {
	Degraded   bool                `json:"degraded"`
	CacheHit   bool                `json:"cache_hit"`
	DiskHit    bool                `json:"disk_hit"`
	PointsTo   map[string]ptsEntry `json:"points_to"`
	Escaped    []string            `json:"escaped"`
	Answers    []aliasAnswer       `json:"answers"`
	Generation int                 `json:"generation"`
	Handle     string              `json:"handle"`
}

type aliasAnswer struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Result string `json:"result"`
	Error  string `json:"error"`
}

type ptsEntry struct {
	Targets  []string `json:"targets"`
	External bool     `json:"external"`
	Error    string   `json:"error,omitempty"`
}

// expectation is the reference answer for one module.
type expectation struct {
	PointsTo map[string]ptsEntry
	Escaped  []string
	Alias    []string
}

// check compares a decoded answer with the expectation; "" means equal.
func (x *expectation) check(got *answerJSON, alias bool) string {
	if x == nil {
		return "no reference"
	}
	if got.Degraded {
		return "degraded answer"
	}
	if alias {
		if len(got.Answers) != len(x.Alias) {
			return fmt.Sprintf("%d alias answers, want %d", len(got.Answers), len(x.Alias))
		}
		for i, a := range got.Answers {
			if a.Result+a.Error != x.Alias[i] {
				return fmt.Sprintf("alias %s,%s = %q, want %q", a.A, a.B, a.Result+a.Error, x.Alias[i])
			}
		}
		return ""
	}
	if !reflect.DeepEqual(got.PointsTo, x.PointsTo) {
		return fmt.Sprintf("points_to %v, want %v", got.PointsTo, x.PointsTo)
	}
	if !reflect.DeepEqual(nonNil(got.Escaped), nonNil(x.Escaped)) {
		return "escaped set differs"
	}
	return ""
}

func nonNil(xs []string) []string {
	if xs == nil {
		return []string{}
	}
	return xs
}

// expectPool computes every pool module's reference answers outside the
// timed window: a from-scratch in-process analysis answers the queries,
// and its points-to answers must equal core.ReferenceSolve's.
func expectPool(pool []*poolModule, r *report) []*expectation {
	out := make([]*expectation, len(pool))
	var mu sync.Mutex
	engine.RunIndexed(len(pool), runtime.NumCPU(), func(i int) {
		pm := pool[i]
		m, err := pip.ParseIR(pm.MIR)
		var x *expectation
		if err == nil {
			x, err = expectModule(m, pm.Queries, pm.Pairs, pip.DefaultConfig(), true)
		}
		if err != nil {
			mu.Lock()
			r.fail("%s: reference: %v", pm.Name, err)
			mu.Unlock()
			return
		}
		out[i] = x
	})
	return out
}

// expectModule analyzes a module from scratch and records the answers to
// the given queries and alias pairs. With withRef, the points-to answers
// are also checked against core.ReferenceSolve.
func expectModule(m *pip.Module, queries []string, pairs [][2]string, cfg pip.Config, withRef bool) (*expectation, error) {
	// A one-module batch solves on a fresh engine worker arena rather
	// than the solver's shared arena pool.
	br := pip.AnalyzeBatch([]*pip.Module{m}, cfg, pip.BatchOptions{Workers: 1})[0]
	if br.Err != nil {
		return nil, br.Err
	}
	res := br.Result
	if res.Degraded() {
		return nil, fmt.Errorf("reference analysis degraded")
	}
	x := &expectation{PointsTo: map[string]ptsEntry{}, Escaped: res.ExternallyAccessible()}
	for _, q := range queries {
		targets, ext, err := res.PointsTo(q)
		if err != nil {
			x.PointsTo[q] = ptsEntry{Error: err.Error()}
			continue
		}
		x.PointsTo[q] = ptsEntry{Targets: nonNil(targets), External: ext}
	}
	for _, p := range pairs {
		v, err := res.Alias(p[0], p[1], 0)
		if err != nil {
			x.Alias = append(x.Alias, err.Error())
			continue
		}
		x.Alias = append(x.Alias, v.String())
	}
	if withRef {
		if err := checkReference(m, x.PointsTo); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// checkReference recomputes the queried points-to sets with
// core.ReferenceSolve and compares them with the analysis' answers.
func checkReference(m *pip.Module, answers map[string]ptsEntry) error {
	var names []string
	for q, a := range answers {
		if a.Error == "" {
			names = append(names, q)
		}
	}
	sort.Strings(names)
	gen, ids, err := pip.DemandRoots(m, nil, names)
	if err != nil {
		return err
	}
	ref := map[core.VarID][]string{}
	for _, line := range strings.Split(core.ReferenceSolve(gen.Problem), "\n") {
		head, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		v, err := strconv.Atoi(head)
		if err != nil {
			return fmt.Errorf("reference line %q: %w", line, err)
		}
		ref[core.VarID(v)] = strings.Fields(rest)
	}
	for k, q := range names {
		want := ptsEntry{Targets: []string{}}
		for _, x := range ref[ids[k]] {
			if x == "Ω" {
				want.External = true
				continue
			}
			v, err := strconv.Atoi(x)
			if err != nil {
				return fmt.Errorf("reference pointee %q: %w", x, err)
			}
			want.Targets = append(want.Targets, gen.Problem.Names[v])
		}
		sort.Strings(want.Targets)
		if !reflect.DeepEqual(want, answers[q]) {
			return fmt.Errorf("%s: analysis %v, ReferenceSolve %v", q, answers[q], want)
		}
	}
	return nil
}
