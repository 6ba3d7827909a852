package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run()'s output
// while it executes on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSmokeMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-smoke", "-quiet"}, &out, &errOut); err != nil {
		t.Fatalf("run -smoke: %v\nstderr:\n%s", err, errOut.String())
	}
	for _, frag := range []string{"pipserve listening on", "smoke ok", "pipserve stopped"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", "BOGUS"}, &out, &errOut); err == nil {
		t.Fatal("bad -config accepted")
	}
	if err := run([]string{"-budget", "10parsecs"}, &out, &errOut); err == nil {
		t.Fatal("bad -budget accepted")
	}
	if err := run([]string{"stray"}, &out, &errOut); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := run([]string{"-backends", "http://x"}, &out, &errOut); err == nil {
		t.Fatal("-backends without -router accepted")
	}
	if err := run([]string{"-router", "-store", t.TempDir()}, &out, &errOut); err == nil {
		t.Fatal("-router with -store accepted")
	}
	if err := run([]string{"-router"}, &out, &errOut); err == nil {
		t.Fatal("-router without -backends accepted outside -smoke")
	}
	// Solving-server flags are refused in router mode rather than
	// dropped; -smoke keeps each row from serving if one is accepted.
	for _, extra := range [][]string{
		{"-trace", filepath.Join(t.TempDir(), "x.json")},
		{"-pprof"},
		{"-budget", "10ms"},
	} {
		args := append([]string{"-router", "-smoke", "-quiet"}, extra...)
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
	if err := run([]string{"-backends-file", "x"}, &out, &errOut); err == nil {
		t.Fatal("-backends-file without -router accepted")
	}
	if err := run([]string{"-router", "-backends", "http://x", "-backends-file", "y"}, &out, &errOut); err == nil {
		t.Fatal("-backends and -backends-file together accepted")
	}
	if err := run([]string{"-router", "-backends-file", "/nonexistent/backends"}, &out, &errOut); err == nil {
		t.Fatal("unreadable -backends-file accepted")
	}
}

// TestRouterSmokeMode: -router -smoke spins up an in-process backend and
// pushes one solve through the full forward path.
func TestRouterSmokeMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-router", "-smoke", "-quiet"}, &out, &errOut); err != nil {
		t.Fatalf("run -router -smoke: %v\nstderr:\n%s", err, errOut.String())
	}
	for _, frag := range []string{"router over 1 backends", "smoke ok", "pipserve stopped"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("output missing %q:\n%s", frag, out.String())
		}
	}
}

// TestStoreWarmRestart is the tentpole acceptance check at CLI level: a
// solve served by one process is answered by the next process over the
// same -store directory as a fingerprint-verified disk hit — cache_hit
// and disk_hit both true, zero re-solves.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	const src = `{"c": "static int x; int *p = &x;", "queries": ["p"]}`

	solve := func(base string) (cacheHit, diskHit bool) {
		t.Helper()
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			CacheHit bool `json:"cache_hit"`
			DiskHit  bool `json:"disk_hit"`
			Degraded bool `json:"degraded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || out.Degraded {
			t.Fatalf("solve: status %d degraded=%v", resp.StatusCode, out.Degraded)
		}
		return out.CacheHit, out.DiskHit
	}
	stopServer := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned error after SIGTERM: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}

	var out1 syncBuffer
	base1, done1 := startServer(t, &out1, "-store", dir)
	if ch, dh := solve(base1); ch || dh {
		t.Fatalf("first-process solve was a hit (cache=%v disk=%v)", ch, dh)
	}
	stopServer(done1) // drain flushes the store

	var out2 syncBuffer
	base2, done2 := startServer(t, &out2, "-store", dir)
	if ch, dh := solve(base2); !ch || !dh {
		t.Fatalf("restarted process re-solved (cache=%v disk=%v), want a verified disk hit", ch, dh)
	}
	stopServer(done2)
	if !strings.Contains(out2.String(), "persistent store at "+dir) {
		t.Fatalf("restart output missing store banner:\n%s", out2.String())
	}
}

var listenRE = regexp.MustCompile(`pipserve listening on (\S+)`)

// startServer runs the daemon on an ephemeral port and returns its base
// URL plus the channel run()'s error will arrive on.
func startServer(t *testing.T, out *syncBuffer, extra ...string) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extra...)
	go func() { done <- run(args, out, os.Stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never started:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSIGTERMDrain: the daemon serves requests, then exits cleanly on
// SIGTERM, draining before it returns.
func TestSIGTERMDrain(t *testing.T) {
	var out syncBuffer
	base, done := startServer(t, &out, "-budget", "500ms,200000f")

	resp, err := http.Post(base+"/v1/solve", "application/json",
		strings.NewReader(`{"c": "static int x; int *p = &x;", "queries": ["p"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var solved struct {
		PointsTo map[string]struct {
			Targets []string `json:"targets"`
		} `json:"points_to"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(solved.PointsTo["p"].Targets) == 0 {
		t.Fatalf("solve failed: %d %+v", resp.StatusCode, solved)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", out.String())
	}
	for _, frag := range []string{"signal received, draining", "pipserve stopped"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("output missing %q:\n%s", frag, out.String())
		}
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestRouterBackendsFileSIGHUPReload: a router started from a backends
// file picks up membership edits on SIGHUP — the dynamic-membership
// contract at CLI level, without a restart.
func TestRouterBackendsFileSIGHUPReload(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/backends"
	if err := os.WriteFile(file, []byte("# initial cluster\nhttp://127.0.0.1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	base, done := startServer(t, &out, "-router", "-backends-file", file)

	ring := func() (backends int, generation uint64) {
		t.Helper()
		resp, err := http.Get(base + "/debug/ring")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r struct {
			Generation uint64 `json:"generation"`
			Backends   []struct {
				URL string `json:"url"`
			} `json:"backends"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return len(r.Backends), r.Generation
	}
	if n, g := ring(); n != 1 || g != 1 {
		t.Fatalf("initial ring: %d backends at generation %d, want 1 at 1", n, g)
	}

	// Edit the file (join one, keep one) and signal the reload.
	if err := os.WriteFile(file,
		[]byte("http://127.0.0.1:1\nhttp://127.0.0.1:2 # joiner\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	// The ring is published before the reload banner is printed, so
	// poll for both.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, g := ring()
		banner := strings.Contains(out.String(), "backends-file reloaded: +1 -0")
		if n == 2 && g >= 2 && banner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never applied: %d backends at generation %d, banner %v\n%s", n, g, banner, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not exit after SIGTERM")
	}
}
