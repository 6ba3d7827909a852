package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// This file exports a Trace in Chrome trace_event JSON ("JSON Object
// Format" with a traceEvents array), the interchange format loaded by
// Perfetto (ui.perfetto.dev) and chrome://tracing. Spans become complete
// events (ph "X"), instants become instant events (ph "i"), counter
// samples become counter events (ph "C"), and lanes are named through
// thread_name metadata events. Timestamps are microseconds since the
// trace start, the unit the format requires.

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

func argsMap(kvs []KV) map[string]any {
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]any, len(kvs))
	for _, a := range kvs {
		if a.Str != "" {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Num
		}
	}
	return m
}

// WriteChrome writes the trace as Chrome trace_event JSON. It may be
// called while recording continues (open spans are clipped to the
// current time and marked "open": 1), though a trace is normally
// exported after its operation finishes.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export a nil trace")
	}
	recs := t.snapshot(allTracks)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	names := t.trackNames()

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)+len(names)),
		DisplayTimeUnit: "ns",
		Metadata: map[string]any{
			"trace_id":        t.ID(),
			"label":           t.Label(),
			"dropped_records": t.Dropped(),
			// Wall-clock start lets MergeChrome align this process's
			// relative timestamps against other processes' on one timeline.
			"start_unix_ns": t.start.UnixNano(),
		},
	}
	for i, name := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   i,
			Args:  map[string]any{"name": name},
		})
	}
	for seq, r := range recs {
		ev := chromeEvent{
			Name: r.name,
			TS:   float64(r.start) / 1e3,
			PID:  1,
			TID:  int(r.track),
			Args: argsMap(r.args),
		}
		// Every non-metadata event carries a span ID unique within this
		// export; MergeChrome prefixes it per process so the merged trace
		// has globally unique IDs (CheckChrome verifies).
		if ev.Args == nil {
			ev.Args = map[string]any{}
		}
		ev.Args["sid"] = "s" + strconv.Itoa(seq)
		switch r.kind {
		case kindSpan:
			ev.Phase = "X"
			d := float64(r.dur) / 1e3
			ev.Dur = &d
			if r.open {
				ev.Args["open"] = 1
			}
		case kindInstant:
			ev.Phase = "i"
			ev.Scope = "t"
		case kindCounter:
			ev.Phase = "C"
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeFile writes the Chrome trace to a file path; the conventional
// extension is .json (drag the file into ui.perfetto.dev to view). The
// write is atomic (temp file + rename) so periodic checkpointing can
// overwrite a live trace file without a crash mid-write ever leaving a
// torn, unloadable JSON behind.
func (t *Trace) WriteChromeFile(path string) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export a nil trace")
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
