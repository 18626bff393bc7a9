package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span that caused this one, 0 for an op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer holds the traced run's spans in memory until the run ends. begin
// and end nest by a stack, so they serve one goroutine at a time; the mutex
// only orders that goroutine against layer calls made from another (the
// exhibit runner's pool).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// nextOp starts a new op: spans begun from here on carry its id.
func (t *tracer) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// insert records a span whose interval was measured elsewhere (the
// pipeline's own per-operator durations) under parent.
func (t *tracer) insert(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent-1].Op, Name: name, Start: start, End: end})
	return id
}

// reparent moves a span under a new parent.
func (t *tracer) reparent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

// childrenOf lists the ids of parent's direct children, in start order.
func (t *tracer) childrenOf(parent int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []int
	for _, s := range t.spans[parent:] { // children are always recorded after their parent
		if s.Parent == parent {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of its interval that its direct children cover. Children may overlap
// each other or stick out of the parent; only their union inside the parent
// is subtracted.
func selfTimes(spans []span) []int64 {
	type interval struct{ lo, hi int64 }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.duration()
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv.lo, edge), min(iv.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals sums duration and self time per span name.
type spanTotals struct {
	count int
	total int64
	self  int64
}

func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.total += s.duration()
		t.self += self[i]
		out[s.Name] = t
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
