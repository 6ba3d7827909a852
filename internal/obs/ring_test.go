package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestSegmentGeometry checks segmentOf against a linear walk over the
// segment sizes 64, 128, 256, ...
func TestSegmentGeometry(t *testing.T) {
	k, off := 0, uint64(0)
	for i := uint64(0); i < 1<<16; i++ {
		if off == segFirst<<k {
			k, off = k+1, 0
		}
		if gk, goff := segmentOf(i); gk != k || goff != off {
			t.Fatalf("segmentOf(%d) = (%d, %d), want (%d, %d)", i, gk, goff, k, off)
		}
		off++
	}
	if got := segStart(maxSegments); got < 1<<63 {
		t.Fatalf("%d segments end at record %d, short of any int capacity", maxSegments, got)
	}
}

// publishedSegments counts the segments a trace has allocated.
func publishedSegments(tr *Trace) int {
	n := 0
	for i := range tr.segs {
		if tr.segs[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestRingCrossesSegmentsUnderConcurrentExport has writers race across
// several segment boundaries (64, 192, 448, 960) up to a cap inside a
// truncated last segment, while exports run against the growing ring.
// Every claimed slot must come back exactly once and drops must account
// for the rest.
func TestRingCrossesSegmentsUnderConcurrentExport(t *testing.T) {
	const capacity, writers, perWriter = 1000, 8, 150
	tr := New("segments", capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	exporterDone := make(chan struct{})
	go func() {
		defer close(exporterDone)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs := tr.Export()
			if len(recs) < last {
				t.Errorf("export shrank from %d to %d records", last, len(recs))
				return
			}
			last = len(recs)
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Error(err)
				return
			}
			_ = tr.Tree()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := tr.NewTrack(fmt.Sprintf("w%d", w))
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					tk.Begin("job", N("i", int64(i))).End(N("w", int64(w)))
				} else {
					tk.Event("step", N("i", int64(i)), N("w", int64(w)))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-exporterDone

	if tr.Len() != capacity || tr.Dropped() != writers*perWriter-capacity {
		t.Fatalf("len %d dropped %d, want %d and %d", tr.Len(), tr.Dropped(), capacity, writers*perWriter-capacity)
	}
	if n := publishedSegments(tr); n != 5 {
		t.Fatalf("%d segments published, want 5 (64+128+256+512+40)", n)
	}
	seen := map[[2]int64]bool{}
	for _, r := range tr.Export() {
		if r.Open || len(r.Args) != 2 {
			t.Fatalf("malformed record %+v", r)
		}
		key := [2]int64{r.Args[1].Num, r.Args[0].Num}
		if seen[key] {
			t.Fatalf("record %v exported twice", key)
		}
		seen[key] = true
	}
	if len(seen) != capacity {
		t.Fatalf("exported %d distinct records, want %d", len(seen), capacity)
	}
}

// TestShortTraceAllocatesOneSegment checks that a trace recording 10
// records allocates no more than its first 64-record segment on top of
// the Trace itself, however large its capacity.
func TestShortTraceAllocatesOneSegment(t *testing.T) {
	const runs = 50
	recordTen := func() *Trace {
		tr := New("short", 1<<12)
		tk := tr.NewTrack("req-1")
		sp := tk.Begin("/v1/solve", S("request_id", "1"))
		for i := 0; i < 8; i++ {
			tk.Event("step", N("i", int64(i)))
		}
		sp.End(N("status", 200))
		tk.Count("depth", 3)
		return tr
	}
	if tr := recordTen(); tr.Len() != 10 || publishedSegments(tr) != 1 {
		t.Fatalf("len %d, %d segments; want 10 records in 1 segment", tr.Len(), publishedSegments(tr))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recordTen()
	}
	runtime.ReadMemStats(&after)
	perTrace := (after.TotalAlloc - before.TotalAlloc) / runs
	segment := uint64(segFirst * unsafe.Sizeof(record{}))
	// The allocator's size-class rounding of the segment, the ID string,
	// the track table and the segment's slice header fit in the slack;
	// the next segment (twice the first) would not.
	limit := segment + uint64(unsafe.Sizeof(Trace{})) + 1024
	if perTrace > limit {
		t.Fatalf("a 10-record trace allocated %d B, limit %d B (first segment %d B)", perTrace, limit, segment)
	}
}

// TestIdleExportAllocatesNoSegment checks that exporting a trace that has
// recorded nothing leaves its ring unallocated.
func TestIdleExportAllocatesNoSegment(t *testing.T) {
	tr := New("idle", 1<<12)
	tr.NewTrack("req-1")
	if recs := tr.Export(); len(recs) != 0 {
		t.Fatalf("idle trace exported %d records", len(recs))
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	_ = tr.Tree()
	if n := publishedSegments(tr); n != 0 {
		t.Fatalf("exporting an idle trace published %d segments", n)
	}
}

// TestTrackExportMatchesFilteredExport checks that a lane's own export is
// exactly the whole export filtered to that lane, order included.
func TestTrackExportMatchesFilteredExport(t *testing.T) {
	tr := New("lanes", 256)
	a, b := tr.NewTrack("req-a"), tr.NewTrack("req-b")
	for i := 0; i < 100; i++ {
		tk := a
		if i%3 == 0 {
			tk = b
		}
		sp := tk.Begin("span", N("i", int64(i)))
		tk.Event("ev")
		if i%5 != 0 {
			sp.End()
		}
	}
	all := tr.Export()
	for _, tk := range []Track{a, b} {
		var want []Record
		for _, r := range all {
			if r.Track == tr.trackNames()[tk.tid] {
				want = append(want, r)
			}
		}
		got := tk.Export()
		if len(got) != len(want) {
			t.Fatalf("lane export has %d records, filtered export %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].StartNS != want[i].StartNS ||
				got[i].Track != want[i].Track || fmt.Sprint(got[i].Args) != fmt.Sprint(want[i].Args) {
				t.Fatalf("record %d: lane export %+v, filtered export %+v", i, got[i], want[i])
			}
		}
	}
	if (Track{}).Export() != nil {
		t.Fatal("zero Track exported records")
	}
}

// BenchmarkRequestTrace is the per-request cost of tracing in the
// service: a fresh trace, the request's lane and root span, 10 records,
// and the lane export the flight recorder keeps.
func BenchmarkRequestTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New("pipserve", 1<<12)
		tk := tr.NewTrack("req-1")
		root := tk.Begin("/v1/solve", S("request_id", "1"))
		for j := 0; j < 8; j++ {
			tk.Begin("phase", N("j", int64(j))).End()
		}
		root.End(N("status", 200))
		tk.Event("done")
		tr.Export()
	}
}
