// Command perfbench is the repository benchmark. It drives the analysis
// through the public functions of its packages and through the real
// cmd/pipserve binary, and prints one JSON result object as the last line
// of standard output:
//
//	perfbench --workload batch-solve --seed 1 --seconds 40 --trace 0
//
// Workloads: batch-solve (in-process engine.Run over a generated corpus
// under the four Table V configurations), serve-solve (a pipserve process
// answering /v1/solve and /v1/alias from a seeded module stream) and
// edit-sessions (C editing sessions posted to /v1/resolve through a
// pipserve router in front of one backend). --workload all runs the three
// in turn and prints every end-to-end metric with its unit and sample
// count. --trace 1 replaces the timed run with the traced layer sweep
// (see trace.go). Every answer is checked against a reference computed
// outside the timed window; a mismatch fails the run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 7

// metric is one reported figure. N is the sample count behind it (0 when
// the figure is not a statistic over samples).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string
	Metrics   []metric
	Attempted int
	Failed    int
	// Errors lists the first few failures verbatim.
	Errors []string
	// Notes are extra human-readable lines (never part of the JSON).
	Notes []string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// env carries the run's settings to the workloads.
type env struct {
	Seed     int64
	Seconds  float64
	Pipserve string // path of the pipserve binary
	Work     string // scratch directory for this run, removed at exit
}

type workloadFunc func(e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"batch-solve":   runBatch,
	"serve-solve":   runServe,
	"edit-sessions": runEdit,
}

var workloadOrder = []string{"batch-solve", "serve-solve", "edit-sessions"}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "batch-solve, serve-solve, edit-sessions or all")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced layer sweep instead of the timed run")
	pipserve := fs.String("pipserve", filepath.Join(".bench_build", "bin", "pipserve"), "pipserve binary")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if _, err := os.Stat(*pipserve); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pipserve binary: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{Seed: *seed, Seconds: *seconds, Pipserve: *pipserve, Work: work}

	if *trace == 1 {
		// The traced sweep covers every workload's layers whatever
		// --workload names, so it runs once.
		names = []string{"traced"}
	}
	var reps []*report
	for _, n := range names {
		var r *report
		var err error
		if *trace == 1 {
			r, err = runTraced(e)
		} else {
			r, err = workloads[n](e)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		printHuman(os.Stdout, r)
		reps = append(reps, r)
	}
	return printJSON(reps)
}

// printHuman writes the report as aligned text lines.
func printHuman(w *os.File, r *report) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	errRatio := 0.0
	if r.Attempted > 0 {
		errRatio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(bw, "== %s: %d operations attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("(n=%d)", m.N)
		}
		fmt.Fprintf(bw, "  %-40s %14.4f %-8s %s\n", m.Name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(bw, "  %-40s %14.4f %-8s (n=%d)\n", "error_ratio", errRatio, "ratio", r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(bw, "  # %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(bw, "  ! %s\n", e)
	}
}

// printJSON writes the result object and returns the exit code. With
// several workloads the metric names are prefixed by the workload.
func printJSON(reps []*report) int {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: true, Metrics: map[string]jm{}}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(reps) > 1 {
				name = r.Workload + "." + name
			}
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // no samples: only possible when operations failed
			}
			out.Metrics[name] = jm{Value: v, Unit: m.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// quantile returns the q-quantile of xs (nearest rank on the sorted
// values); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of a copy of xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status, in MiB. pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	p := "/proc/self/status"
	if pid != 0 {
		p = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", p)
}

// timedSetups runs setup setupRepeats times, keeps the last result and
// returns the median set-up time in seconds. Every discarded result is
// released through its close function and dropped, and the heap is
// collected, before the next set-up starts its clock.
func timedSetups[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last, zero T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(last)
			last = zero
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// throughputSlices is the steady-state throughput of a closed-loop run:
// the window is cut into throughputSlices equal slices, each slice's
// throughput is the MIR instructions of the operations that completed in
// it over its length, and the median slice is reported in kinstr/s.
// Operations completing after the window are not counted.
const throughputSlices = 10

type completion struct {
	At     time.Duration // since the window opened
	Instrs int
}

func sliceThroughput(done []completion, window time.Duration) float64 {
	per := make([]float64, throughputSlices)
	slice := window / throughputSlices
	for _, c := range done {
		if i := int(c.At / slice); i < throughputSlices {
			per[i] += float64(c.Instrs)
		}
	}
	for i := range per {
		per[i] /= slice.Seconds() * 1e3
	}
	return median(per)
}
