package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tk := tr.NewTrack("x")
	if tk.Enabled() {
		t.Fatal("track of nil trace reports enabled")
	}
	sp := tk.Begin("phase")
	tk.Event("ev", N("a", 1))
	tk.Count("c", 42)
	sp.End(N("b", 2))
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.ID() != "" {
		t.Fatal("nil trace accumulated state")
	}
	if got := tr.Tree(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil tree = %q", got)
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a nil trace should error")
	}
}

func TestSpanEventCounterRecording(t *testing.T) {
	tr := New("test", 16)
	if tr.ID() == "" || len(tr.ID()) != 16 {
		t.Fatalf("bad trace id %q", tr.ID())
	}
	tk := tr.NewTrack("solver")
	sp := tk.Begin("solve", S("config", "IP+WL(FIFO)+PIP"))
	inner := tk.Begin("collapse")
	tk.Event("scc_collapse", N("size", 3), N("rep", 7))
	tk.Count("worklist_depth", 12)
	inner.End()
	sp.End(N("firings", 100))

	recs := tr.snapshot(allTracks)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]exported{}
	for _, r := range recs {
		byName[r.name] = r
	}
	solve := byName["solve"]
	if solve.kind != kindSpan || solve.open {
		t.Fatalf("solve span malformed: %+v", solve)
	}
	if len(solve.args) != 2 || solve.args[0].Str != "IP+WL(FIFO)+PIP" || solve.args[1].Num != 100 {
		t.Fatalf("solve args = %+v", solve.args)
	}
	if ev := byName["scc_collapse"]; ev.kind != kindInstant || len(ev.args) != 2 {
		t.Fatalf("event malformed: %+v", ev)
	}
	if c := byName["worklist_depth"]; c.kind != kindCounter || c.args[0].Num != 12 {
		t.Fatalf("counter malformed: %+v", c)
	}
}

func TestRingFullDropsAndCounts(t *testing.T) {
	tr := New("tiny", 2)
	tk := tr.NewTrack("t")
	tk.Event("a")
	tk.Event("b")
	tk.Event("c") // dropped
	sp := tk.Begin("late")
	sp.End() // Begin dropped; End is a no-op
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTrackDedupByName(t *testing.T) {
	tr := New("t", 8)
	a := tr.NewTrack("worker-1")
	b := tr.NewTrack("worker-2")
	c := tr.NewTrack("worker-1")
	if a.tid != c.tid {
		t.Fatalf("same name, different tracks: %d vs %d", a.tid, c.tid)
	}
	if a.tid == b.tid {
		t.Fatal("different names share a track")
	}
}

func TestConcurrentRecordingAndExport(t *testing.T) {
	tr := New("race", 1<<12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := tr.NewTrack("worker")
			for i := 0; i < 200; i++ {
				sp := tk.Begin("job", N("i", int64(i)))
				tk.Event("step")
				tk.Count("n", int64(i))
				sp.End(N("done", 1))
			}
		}(w)
	}
	// Export concurrently with recording: snapshot must stay consistent.
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		_ = tr.Tree()
	}
	wg.Wait()
	if got, want := tr.Len()+int(tr.Dropped()), 8*200*3; got != want {
		t.Fatalf("records+dropped = %d, want %d", got, want)
	}
}

func TestWriteChromeShape(t *testing.T) {
	tr := New("chrome", 64)
	tk := tr.NewTrack("solver")
	sp := tk.Begin("offline")
	time.Sleep(time.Millisecond)
	sp.End()
	tk.Event("wave", N("pass", 1))
	tk.Count("worklist_depth", 5)
	open := tk.Begin("still-open")
	_ = open

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   *float64       `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if parsed.Metadata["trace_id"] != tr.ID() {
		t.Fatalf("metadata trace_id = %v", parsed.Metadata["trace_id"])
	}
	phases := map[string]string{}
	for _, ev := range parsed.TraceEvents {
		phases[ev.Name] = ev.Phase
		if ev.Phase == "X" {
			if ev.Dur == nil {
				t.Fatalf("span %s has no dur", ev.Name)
			}
			if *ev.Dur < 0 {
				t.Fatalf("span %s has negative dur", ev.Name)
			}
		}
	}
	want := map[string]string{
		"thread_name":    "M",
		"offline":        "X",
		"wave":           "i",
		"worklist_depth": "C",
		"still-open":     "X",
	}
	for name, ph := range want {
		if phases[name] != ph {
			t.Fatalf("event %s: phase %q, want %q (all: %v)", name, phases[name], ph, phases)
		}
	}
}

func TestTreeRendersNestingAndTallies(t *testing.T) {
	tr := New("tree", 64)
	tk := tr.NewTrack("solver")
	solve := tk.Begin("solve")
	col := tk.Begin("collapse")
	tk.Event("scc_collapse", N("size", 2))
	tk.Event("scc_collapse", N("size", 5))
	col.End()
	tk.Count("worklist_depth", 9)
	solve.End()

	out := tr.Tree()
	if !strings.Contains(out, "solver:") {
		t.Fatalf("missing track header:\n%s", out)
	}
	// collapse must be indented deeper than solve.
	solveIdx := strings.Index(out, "solve")
	colIdx := strings.Index(out, "collapse")
	if solveIdx < 0 || colIdx < 0 || colIdx < solveIdx {
		t.Fatalf("nesting wrong:\n%s", out)
	}
	if !strings.Contains(out, "scc_collapse ×2") {
		t.Fatalf("missing event tally:\n%s", out)
	}
	if !strings.Contains(out, "worklist_depth: 1 samples, last 9") {
		t.Fatalf("missing counter tally:\n%s", out)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tk Track // zero = disabled
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tk.Begin("solve")
		sp.End()
	}
}

func BenchmarkEnabledEvent(b *testing.B) {
	tr := New("bench", 1<<20)
	tk := tr.NewTrack("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Event("ev", N("i", int64(i)))
	}
}
