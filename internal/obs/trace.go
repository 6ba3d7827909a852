// Package obs is the observability layer shared by the solver core, the
// batch engine, the analysis service, and the CLI binaries: a low-overhead
// per-solve structured trace recorder plus the Prometheus primitives the
// service exports on /metrics.
//
// The recorder is built for the solver's hot loops. Recording claims a slot
// in a bounded ring of records with one atomic add — no locks — and every
// recording method on a nil *Trace (or the zero Track) returns
// immediately, so instrumented code pays a single pointer test when
// tracing is off. The ring is allocated by use: its slots live in
// segments of 64, 128, 256, ... records, each allocated by the first
// record that lands in it and published with a compare-and-swap, so a
// trace that records ten spans costs one small segment however large its
// capacity. When the ring fills, further records are dropped and counted
// rather than overwriting earlier ones: a span that is still open owns its
// slot until End, so overwrite semantics would tear open spans, and for a
// solve trace the head of the run (offline phases, first waves) is the
// part that explains the rest.
//
// Traces export to Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing, see chrome.go) and to a plain-text phase tree
// (tree.go).
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the record capacity New uses when the caller passes
// a non-positive one. At 216 bytes per record (four inline arguments
// included) a full trace holds about 14 MiB, enough for the full phase
// tree and sampled profiles of a corpus-sized solve; segments are
// allocated only as records arrive, so a short trace costs far less.
const DefaultCapacity = 1 << 16

// Ring segments: segment k holds segFirst<<k records and starts at record
// segFirst*(2^k - 1). maxSegments segments cover any int capacity.
const (
	segShift    = 6
	segFirst    = 1 << segShift
	maxSegments = 64 - segShift
)

// segmentOf maps a record index to its segment and the offset within it.
func segmentOf(i uint64) (k int, off uint64) {
	k = bits.Len64(i>>segShift+1) - 1
	return k, i - segStart(k)
}

// segStart is the index of segment k's first record.
func segStart(k int) uint64 { return segFirst * (1<<k - 1) }

// KV is one argument attached to a span or event. Num carries numeric
// arguments; a non-empty Str takes precedence and carries string
// arguments (request IDs, configuration names).
type KV struct {
	Key string
	Num int64
	Str string
}

// N builds a numeric argument.
func N(key string, v int64) KV { return KV{Key: key, Num: v} }

// S builds a string argument.
func S(key, v string) KV { return KV{Key: key, Str: v} }

// record states: a slot is claimed (filling), then published as a
// complete event or an open span; End republishes an open span as
// complete. Exporters read only published slots, and the release/acquire
// pair on state makes the plain field writes visible — recording never
// races with export even when a trace is exported while spans are open.
const (
	stateEmpty uint32 = iota
	stateFilling
	stateOpenSpan
	stateComplete
)

type recordKind uint8

const (
	kindSpan recordKind = iota + 1
	kindInstant
	kindCounter
)

// maxArgs bounds per-record arguments so records stay allocation-free.
const maxArgs = 4

type record struct {
	state atomic.Uint32
	dur   atomic.Int64 // span duration in ns; written by End
	// nargs is atomic because End extends args while an exporter may be
	// snapshotting an open span: the release store on nargs (after the
	// new elements are written) paired with the acquire load in snapshot
	// orders the plain writes to args.
	nargs atomic.Int32
	kind  recordKind
	track int32
	start int64 // ns since trace start
	name  string
	args  [maxArgs]KV
}

// Trace is a bounded, lock-free span/event recorder for one logical
// operation (a solve, a batch run, a server process). Create with New;
// a nil *Trace is a valid, disabled recorder.
type Trace struct {
	id    string
	label string
	start time.Time

	capacity uint64
	segs     [maxSegments]atomic.Pointer[[]record]
	cursor   atomic.Uint64
	dropped  atomic.Uint64

	// Track registration is rare (a handful per trace), so a mutex is
	// fine here; recording itself never takes it.
	trackMu sync.Mutex
	tracks  []string // index = track id
}

// New returns a Trace with a fresh random ID. capacity <= 0 means
// DefaultCapacity.
func New(label string, capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{
		id:       NewID(),
		label:    label,
		start:    time.Now(),
		capacity: uint64(capacity),
	}
}

// NewID returns a fresh random trace/request ID (16 hex digits).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock so IDs stay usable (uniqueness, not secrecy, is the goal).
		return hex.EncodeToString([]byte(time.Now().Format("150405.000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace's identifier (empty on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetID overrides the trace ID (a server adopts the request's
// X-Request-Id). Call before recording threads share the trace.
func (t *Trace) SetID(id string) {
	if t != nil && id != "" {
		t.id = id
	}
}

// Label returns the trace's label.
func (t *Trace) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Enabled reports whether recording is live.
func (t *Trace) Enabled() bool { return t != nil }

// Len returns the number of claimed records.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.cursor.Load(), t.capacity))
}

// Dropped returns the number of records dropped because the ring was full.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// now returns nanoseconds since the trace start.
func (t *Trace) now() int64 { return int64(time.Since(t.start)) }

// claim reserves the next record slot, or nil when the ring is full.
func (t *Trace) claim() *record {
	i := t.cursor.Add(1) - 1
	if i >= t.capacity {
		t.dropped.Add(1)
		return nil
	}
	k, off := segmentOf(i)
	seg := t.segs[k].Load()
	if seg == nil {
		seg = t.grow(k)
	}
	r := &(*seg)[off]
	r.state.Store(stateFilling)
	return r
}

// grow allocates segment k and publishes it. Writers that race to the
// same fresh segment each allocate one; the first CAS wins and the rest
// drop their copy and use the winner's.
func (t *Trace) grow(k int) *[]record {
	start := segStart(k)
	seg := make([]record, min(segFirst<<k, t.capacity-start))
	if t.segs[k].CompareAndSwap(nil, &seg) {
		return &seg
	}
	return t.segs[k].Load()
}

// Track is one logical lane of a trace (a solver phase stack, a worker
// goroutine, the HTTP front end). Lanes render as separate threads in
// Perfetto, so spans on one lane nest by time containment. The zero Track
// is disabled.
type Track struct {
	tr  *Trace
	tid int32
}

// NewTrack returns the lane with the given name, creating it on first
// use; repeated calls with one name share a lane (the engine's workers
// ask by name on every job).
func (t *Trace) NewTrack(name string) Track {
	if t == nil {
		return Track{}
	}
	t.trackMu.Lock()
	defer t.trackMu.Unlock()
	for i, n := range t.tracks {
		if n == name {
			return Track{tr: t, tid: int32(i)}
		}
	}
	t.tracks = append(t.tracks, name)
	return Track{tr: t, tid: int32(len(t.tracks) - 1)}
}

// trackNames snapshots the registered lane names.
func (t *Trace) trackNames() []string {
	t.trackMu.Lock()
	defer t.trackMu.Unlock()
	return append([]string(nil), t.tracks...)
}

// Enabled reports whether the lane records anywhere.
func (tk Track) Enabled() bool { return tk.tr != nil }

// Trace returns the lane's trace (nil for the zero Track).
func (tk Track) Trace() *Trace { return tk.tr }

// Span is an open span handle; close it with End. The zero Span is a
// no-op (returned whenever recording is off or the ring is full).
type Span struct {
	tr  *Trace
	rec *record
}

// Begin opens a span on the lane. args recorded at Begin survive even if
// End never runs (the exporter closes open spans at export time).
func (tk Track) Begin(name string, args ...KV) Span {
	if tk.tr == nil {
		return Span{}
	}
	r := tk.tr.claim()
	if r == nil {
		return Span{}
	}
	r.kind = kindSpan
	r.track = tk.tid
	r.name = name
	r.start = tk.tr.now()
	r.nargs.Store(int32(copyArgs(&r.args, args)))
	r.dur.Store(-1)
	r.state.Store(stateOpenSpan)
	return Span{tr: tk.tr, rec: r}
}

// End closes the span, optionally attaching result arguments (they fill
// the slots left after Begin's).
func (sp Span) End(args ...KV) {
	if sp.rec == nil {
		return
	}
	r := sp.rec
	n := int(r.nargs.Load())
	for _, a := range args {
		if n >= maxArgs {
			break
		}
		r.args[n] = a
		n++
	}
	r.nargs.Store(int32(n))
	r.dur.Store(sp.tr.now() - r.start)
	r.state.Store(stateComplete)
}

// Event records an instant event on the lane.
func (tk Track) Event(name string, args ...KV) {
	if tk.tr == nil {
		return
	}
	r := tk.tr.claim()
	if r == nil {
		return
	}
	r.kind = kindInstant
	r.track = tk.tid
	r.name = name
	r.start = tk.tr.now()
	r.nargs.Store(int32(copyArgs(&r.args, args)))
	r.state.Store(stateComplete)
}

// Count records one sample of a named counter series (rendered as a
// counter track in Perfetto — the convergence profile uses these).
func (tk Track) Count(name string, v int64) {
	if tk.tr == nil {
		return
	}
	r := tk.tr.claim()
	if r == nil {
		return
	}
	r.kind = kindCounter
	r.track = tk.tid
	r.name = name
	r.start = tk.tr.now()
	r.args[0] = KV{Key: name, Num: v}
	r.nargs.Store(1)
	r.state.Store(stateComplete)
}

func copyArgs(dst *[maxArgs]KV, src []KV) int {
	n := len(src)
	if n > maxArgs {
		n = maxArgs
	}
	copy(dst[:n], src[:n])
	return n
}

// exported is one published record in plain (exporter-friendly) form.
type exported struct {
	kind  recordKind
	track int32
	start int64 // ns since trace start
	dur   int64 // ns; spans only
	open  bool  // span had not ended at snapshot time
	name  string
	args  []KV
}

// Start returns the trace's wall-clock creation time (zero on a nil
// trace). Cross-process merging (MergeChrome) aligns per-process
// timelines by the difference of their start times.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Record is one published trace record in exported form — the shape the
// flight recorder persists in dumps and tests inspect. Kind is "span",
// "instant", or "counter".
type Record struct {
	Kind    string `json:"kind"`
	Track   string `json:"track"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Open    bool   `json:"open,omitempty"`
	Args    []KV   `json:"args,omitempty"`
}

func (k recordKind) String() string {
	switch k {
	case kindSpan:
		return "span"
	case kindInstant:
		return "instant"
	case kindCounter:
		return "counter"
	}
	return "unknown"
}

// Export returns a consistent copy of every published record with track
// names resolved, ordered by start time. Like WriteChrome it may run
// while recording continues; open spans are clipped to now.
func (t *Trace) Export() []Record {
	if t == nil {
		return nil
	}
	return t.export(allTracks)
}

// Export returns the lane's own records, in the form and order Trace.Export
// gives them. Records on other lanes are skipped before they are copied or
// sorted, so exporting one request's lane of a shared trace costs that
// lane's records, not the whole trace's.
func (tk Track) Export() []Record {
	if tk.tr == nil {
		return nil
	}
	return tk.tr.export(tk.tid)
}

func (t *Trace) export(track int32) []Record {
	recs := t.snapshot(track)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	names := t.trackNames()
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		rec := Record{
			Kind:    r.kind.String(),
			Name:    r.name,
			StartNS: r.start,
			Args:    r.args,
		}
		if int(r.track) < len(names) {
			rec.Track = names[r.track]
		}
		if r.kind == kindSpan {
			rec.DurNS = r.dur
			rec.Open = r.open
		}
		out = append(out, rec)
	}
	return out
}

// allTracks is the snapshot filter that keeps every lane.
const allTracks int32 = -1

// snapshot returns a consistent copy of every published record on the
// given lane (allTracks for all of them), closing still-open spans at the
// current time. Safe to call while recording continues: slots still being
// filled are skipped, and so are segments not yet published — snapshot
// never allocates one.
func (t *Trace) snapshot(track int32) []exported {
	if t == nil {
		return nil
	}
	n := uint64(t.Len())
	now := t.now()
	var out []exported
	if track == allTracks {
		out = make([]exported, 0, n)
	}
	for k := 0; segStart(k) < n; k++ {
		seg := t.segs[k].Load()
		if seg == nil {
			continue
		}
		recs := (*seg)[:min(uint64(len(*seg)), n-segStart(k))]
		for i := range recs {
			r := &recs[i]
			st := r.state.Load()
			if st != stateComplete && st != stateOpenSpan {
				continue
			}
			if track != allTracks && r.track != track {
				continue
			}
			na := r.nargs.Load()
			c := exported{
				kind:  r.kind,
				track: r.track,
				start: r.start,
				name:  r.name,
				args:  append([]KV(nil), r.args[:na]...),
			}
			if d := r.dur.Load(); d >= 0 {
				c.dur = d
			} else {
				c.dur = now - r.start // span still open: clip to now
				c.open = true
			}
			out = append(out, c)
		}
	}
	return out
}
