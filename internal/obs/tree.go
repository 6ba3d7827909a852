package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Tree renders the trace as a plain-text phase tree: one section per
// lane, spans nested by time containment with durations, and per-span
// tallies of the instant events and counter samples recorded inside
// them. This is the terminal-friendly view of the same data WriteChrome
// exports for Perfetto.
func (t *Trace) Tree() string {
	if t == nil {
		return "(tracing disabled)\n"
	}
	recs := t.snapshot(allTracks)
	names := t.trackNames()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%s): %d records", t.ID(), t.Label(), len(recs))
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, ", %d dropped (ring full)", d)
	}
	b.WriteByte('\n')

	byTrack := map[int32][]exported{}
	for _, r := range recs {
		byTrack[r.track] = append(byTrack[r.track], r)
	}
	tids := make([]int32, 0, len(byTrack))
	for tid := range byTrack {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	for _, tid := range tids {
		name := fmt.Sprintf("track %d", tid)
		if int(tid) < len(names) {
			name = names[tid]
		}
		fmt.Fprintf(&b, "%s:\n", name)
		writeTrackTree(&b, byTrack[tid])
	}
	return b.String()
}

// writeTrackTree prints one lane's spans as a containment tree, with
// event/counter tallies attached to the innermost enclosing span.
func writeTrackTree(b *strings.Builder, recs []exported) {
	var spans, points []exported
	for _, r := range recs {
		if r.kind == kindSpan {
			spans = append(spans, r)
		} else {
			points = append(points, r)
		}
	}
	// Sort spans outermost-first so a simple stack assigns children.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].dur > spans[j].dur
	})

	type node struct {
		exported
		children []*node
		tally    map[string]tallyEntry
	}
	root := &node{}
	stack := []*node{root}
	contains := func(outer *node, r exported) bool {
		if outer == root {
			return true
		}
		return r.start >= outer.start && r.start+r.dur <= outer.start+outer.dur
	}
	var nodes []*node
	for _, sp := range spans {
		for len(stack) > 1 && !contains(stack[len(stack)-1], sp) {
			stack = stack[:len(stack)-1]
		}
		n := &node{exported: sp, tally: map[string]tallyEntry{}}
		parent := stack[len(stack)-1]
		parent.children = append(parent.children, n)
		stack = append(stack, n)
		nodes = append(nodes, n)
	}
	// Attach each point record to the innermost span containing it.
	orphan := map[string]tallyEntry{}
	for _, p := range points {
		var best *node
		for _, n := range nodes {
			if p.start >= n.start && p.start <= n.start+n.dur {
				if best == nil || n.dur < best.dur {
					best = n
				}
			}
		}
		if best != nil {
			addTally(best.tally, p)
		} else {
			addTally(orphan, p)
		}
	}

	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n != root {
			indent := strings.Repeat("  ", depth)
			fmt.Fprintf(b, "%s%-24s %10v", indent, n.name, time.Duration(n.dur).Round(time.Microsecond))
			if n.open {
				b.WriteString("  (open)")
			}
			for _, a := range n.args {
				if a.Str != "" {
					fmt.Fprintf(b, "  %s=%s", a.Key, a.Str)
				} else {
					fmt.Fprintf(b, "  %s=%d", a.Key, a.Num)
				}
			}
			b.WriteByte('\n')
			writeTally(b, n.tally, depth+1)
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	writeTally(b, orphan, 1)
}

type tallyEntry struct {
	count int
	last  int64 // last counter value seen (for counter series)
	isCtr bool
}

func addTally(m map[string]tallyEntry, p exported) {
	e := m[p.name]
	e.count++
	if p.kind == kindCounter && len(p.args) > 0 {
		e.isCtr = true
		e.last = p.args[0].Num
	}
	m[p.name] = e
}

func writeTally(b *strings.Builder, m map[string]tallyEntry, depth int) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	indent := strings.Repeat("  ", depth)
	for _, k := range keys {
		e := m[k]
		if e.isCtr {
			fmt.Fprintf(b, "%s· %s: %d samples, last %d\n", indent, k, e.count, e.last)
		} else {
			fmt.Fprintf(b, "%s· %s ×%d\n", indent, k, e.count)
		}
	}
}
