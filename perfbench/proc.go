package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one running pipserve process.
type server struct {
	cmd  *exec.Cmd
	URL  string // http://host:port
	done chan struct{}
}

// startServer runs the pipserve binary with args plus an ephemeral
// loopback -addr, waits for its "listening on" line and then for /healthz
// to answer 200.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pipserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pipserve listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.URL = "http://" + a
	case <-s.done:
		return nil, errors.New("pipserve exited before listening")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("pipserve did not report its address")
	}
	if err := waitHealthy(s.URL); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer 200: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSS returns the process's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within 15 s, and waits until it has.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// post sends one JSON body and returns the status and the whole response
// body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newClient returns an HTTP client keeping one idle connection per
// closed-loop worker.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
