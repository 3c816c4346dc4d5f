package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory: a name, a start and end, and the span
// that caused it. Spans of one op share the op's root span as ancestor.
// Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Time
}

func newTracer() *tracer { return &tracer{counts: make(map[string]float64)} }

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.counts = nil, make(map[string]float64)
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.start(name, parent)
	f()
	t.end(id)
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerTimes are the per-name totals of a trace: how many spans, their
// summed duration, and their summed self time (duration minus the time
// covered by child spans).
type layerTimes struct {
	n     int
	total time.Duration
	self  time.Duration
}

func (t *tracer) summarize() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end.Sub(s.start)
		}
	}
	out := make(map[string]*layerTimes)
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end.Sub(s.start)
		lt.n++
		lt.total += d
		lt.self += d - children[i]
	}
	return out
}

// selfReport renders one line per span name, largest self time first,
// with times averaged over ops.
func selfReport(sum map[string]*layerTimes, ops int) []string {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]].self > sum[names[j]].self })
	lines := []string{fmt.Sprintf("  %-28s %12s %12s %8s", "span", "self ms/op", "total ms/op", "calls")}
	for _, n := range names {
		lt := sum[n]
		lines = append(lines, fmt.Sprintf("  %-28s %12.3f %12.3f %8d", n,
			ms(lt.self)/float64(ops), ms(lt.total)/float64(ops), lt.n))
	}
	return lines
}
