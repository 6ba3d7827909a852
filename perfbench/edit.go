package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/pip-analysis/pip"
	"github.com/pip-analysis/pip/internal/engine"
)

// Edit-sessions traffic shape.
const (
	editConfig  = "IP+WL(FIFO)+DP" // resumable, as bench.IncrementalConfig
	editConns   = 2                // closed-loop connections
	editScripts = 8                // distinct sessions; later sessions replay them
	editUnits   = 48               // functions in a base file (about 30 KB of C)
	editSteps   = 12               // edits per session
)

type editRun struct {
	Scripts []*editScript
	Backend *server
	Router  *server
}

func (er *editRun) stop() {
	er.Router.stop()
	er.Backend.stop()
}

func setupEditScripts(seed int64) []*editScript {
	out := make([]*editScript, editScripts)
	for i := range out {
		out[i] = newEditScript(seed, i, editUnits, editSteps)
	}
	return out
}

func setupEdit(e *env) (*editRun, error) {
	er := &editRun{Scripts: setupEditScripts(e.Seed)}
	var err error
	if er.Backend, err = startServer(e.Pipserve, "-quiet"); err != nil {
		return nil, err
	}
	if er.Router, err = startServer(e.Pipserve, "-quiet", "-router", "-backends", er.Backend.URL); err != nil {
		er.Backend.stop()
		return nil, err
	}
	// Warm-up: one whole throwaway session through the router, so every
	// kind of edit has been resolved once.
	c := newClient(1)
	s := er.Scripts[0]
	handle := ""
	for v := range s.Versions {
		status, body, err := postResolve(c, er.Router.URL, s, v, handle)
		if err != nil || status != http.StatusOK {
			er.stop()
			return nil, fmt.Errorf("warm-up: status %d %v %.200s", status, err, body)
		}
		var a answerJSON
		if err := json.Unmarshal(body, &a); err != nil || a.Generation != v {
			er.stop()
			return nil, fmt.Errorf("warm-up: generation %d, want %d: %v", a.Generation, v, err)
		}
		handle = a.Handle
	}
	return er, nil
}

// resolveBody is the /v1/resolve request for version v of a script.
func resolveBody(s *editScript, v int, handle string) ([]byte, error) {
	return json.Marshal(solveBody{Name: s.Name, C: s.Versions[v], Config: editConfig, Handle: handle, Queries: cQueries})
}

// postResolve posts version v of a script to /v1/resolve.
func postResolve(c *http.Client, url string, s *editScript, v int, handle string) (int, []byte, error) {
	body, err := resolveBody(s, v, handle)
	if err != nil {
		return 0, nil, err
	}
	return post(context.Background(), c, url+"/v1/resolve", body)
}

func runEdit(e *env) (*report, error) {
	er, setupS, err := timedSetups(func() (*editRun, error) { return setupEdit(e) }, (*editRun).stop)
	if err != nil {
		return nil, err
	}
	defer er.stop()
	runtime.GC()
	window := time.Duration(e.Seconds * float64(time.Second))
	ops, bodies, wall := closedLoop(editConns, window, sessionWorkers(er.Scripts, er.Router.URL))
	peakR, err := er.Router.peakRSS()
	if err != nil {
		return nil, err
	}
	peakB, err := er.Backend.peakRSS()
	if err != nil {
		return nil, err
	}
	er.stop()

	r := &report{Workload: "edit-sessions"}
	lat, comp, paths := checkEdits(r, er.Scripts, ops, bodies)
	r.add("setup_s", setupS, "s", setupRepeats)
	r.add("p50_ms", quantile(lat, 0.50), "ms", len(lat))
	r.add("p95_ms", quantile(lat, 0.95), "ms", len(lat))
	r.add("throughput_kinstr_s", sliceThroughput(comp, window), "kinstr/s", throughputSlices)
	r.add("peak_rss_mb", peakR+peakB, "MB", 2)
	r.Notes = append(r.Notes, fmt.Sprintf("%d resolves in %v over %d scripts of %d edits; paths: %v",
		len(ops), wall.Round(time.Millisecond), editScripts, editSteps, paths))
	r.Notes = append(r.Notes, fmt.Sprintf("peak RSS router %.1f MB, backend %.1f MB", peakR, peakB))
	return r, nil
}

// editOp numbers version v of script k as one closed-loop operation.
func editOp(k, v int) int { return k*(editSteps+1) + v }

// sessionWorkers returns workers that each play whole sessions (script
// k % editScripts for the k-th session started), carrying the session's
// handle from its opening resolve to its edits.
func sessionWorkers(scripts []*editScript, url string) func() loopWorker {
	c := newClient(editConns)
	var sessions atomic.Int64
	return func() loopWorker {
		k, v, handle := 0, editSteps, ""
		var opened []byte // answer to the session's opening resolve
		return loopWorker{
			next: func() (int, bool) {
				if v == 0 {
					var a answerJSON
					if json.Unmarshal(opened, &a) != nil || a.Handle == "" {
						v = editSteps // counted as failed in checkEdits; start the next session
					}
					handle = a.Handle
				}
				if v == editSteps {
					k, v, handle = int(sessions.Add(1)-1)%len(scripts), 0, ""
				} else {
					v++
				}
				return editOp(k, v), true
			},
			send: func(op int) (int, []byte, error) {
				status, body, err := postResolve(c, url, scripts[k], v, handle)
				if v == 0 {
					opened = body
				}
				return status, body, err
			},
		}
	}
}

// resolveJSON is the part of a /v1/resolve answer that is checked.
type resolveJSON struct {
	answerJSON
	Incremental *pip.IncrementalStats `json:"incremental"`
}

// editPath is the incremental path one resolve took; it must be the same
// every time the same version of the same script is resolved.
type editPath struct {
	Resumed, Reused bool
	Fallback        string
	ReusedC         int
}

// checkEdits verifies every resolve against a from-scratch analysis of
// the same source and returns the latencies and completions of the
// verified resolves, and the count of each incremental path.
func checkEdits(r *report, scripts []*editScript, ops []served, bodies map[[32]byte][]byte) ([]float64, []completion, map[string]int) {
	type key struct{ s, v int }
	opKey := func(op served) key { return key{op.Op / (editSteps + 1), op.Op % (editSteps + 1)} }
	need := map[key]bool{}
	for _, op := range ops {
		need[opKey(op)] = true
	}
	keys := make([]key, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	exp := make([]*expectation, len(keys))
	instrs := make([]int, len(keys))
	errs := make([]error, len(keys))
	cfg := pip.MustParseConfig(editConfig)
	engine.RunIndexed(len(keys), runtime.NumCPU(), func(i int) {
		s := scripts[keys[i].s]
		m, err := pip.CompileC(s.Name, s.Versions[keys[i].v])
		if err != nil {
			errs[i] = err
			return
		}
		instrs[i] = m.NumInstrs()
		exp[i], errs[i] = expectModule(m, cQueries, nil, cfg, false)
	})
	idx := map[key]int{}
	for i, k := range keys {
		idx[k] = i
		if errs[i] != nil {
			r.fail("%s version %d: reference: %v", scripts[k.s].Name, k.v, errs[i])
		}
	}

	var lat []float64
	var comp []completion
	paths := map[string]int{}
	seen := map[key]editPath{}
	for _, op := range ops {
		k := opKey(op)
		name := scripts[k.s].Name
		r.Attempted++
		if op.Err != "" || op.Status != http.StatusOK {
			r.fail("%s version %d: status %d %s %.200s", name, k.v, op.Status, op.Err, bodies[op.Body])
			continue
		}
		var got resolveJSON
		if err := json.Unmarshal(bodies[op.Body], &got); err != nil {
			r.fail("%s version %d: bad response: %v", name, k.v, err)
			continue
		}
		if errs[idx[k]] != nil {
			continue // reference failure already counted
		}
		if msg := exp[idx[k]].check(&got.answerJSON, false); msg != "" {
			r.fail("%s version %d: %s", name, k.v, msg)
			continue
		}
		if got.Generation != k.v || got.Incremental == nil {
			r.fail("%s version %d: generation %d, incremental %v", name, k.v, got.Generation, got.Incremental)
			continue
		}
		inc := got.Incremental
		p := editPath{Resumed: inc.Resumed, Reused: inc.ReusedSolution, Fallback: inc.FallbackReason, ReusedC: inc.Reused}
		if prev, ok := seen[k]; ok && prev != p {
			r.fail("%s version %d: incremental path %+v, earlier %+v", name, k.v, p, prev)
			continue
		}
		seen[k] = p
		switch {
		case p.Reused:
			paths["reused"]++
		case p.Resumed:
			paths["resumed"]++
		default:
			paths["fallback: "+p.Fallback]++
		}
		lat = append(lat, ms(op.Latency))
		comp = append(comp, completion{At: op.At, Instrs: instrs[idx[k]]})
	}
	return lat, comp, paths
}
