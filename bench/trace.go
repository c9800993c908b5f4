package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the layers' public functions. Parent is the index of
// the enclosing span in the same run (-1 for a root); Run names the child
// process that recorded it, so spans of one run share an identifier.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// tracer keeps spans in memory; the caller writes them out when the run ends.
// It is used from one goroutine per run (the child's main goroutine). A nil
// tracer records nothing, so untraced runs execute the same call sites.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("bench: span closed out of order")
	}
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// phases records already-measured consecutive phases of the span parent as
// its children, laid out back to back from its start: the layers report some
// phases only as durations (decompose.Timings), not as intervals.
func (t *tracer) phases(parent int, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	at := t.spans[parent].StartNs
	for i, name := range names {
		t.spans = append(t.spans, span{Name: name, StartNs: at, EndNs: at + int64(durs[i]), Parent: parent, Run: t.run})
		at += int64(durs[i])
	}
}

// selfTimes returns, per span name, the time spent in spans of that name and
// not in their children: a span's duration minus the part of its interval its
// direct children cover. Children may overlap each other (concurrent calls),
// so covered time is the length of the union of their intervals, clipped to
// the parent. Summed over a tree, self times equal the root's duration.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(spans[k].StartNs, cursor), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}
