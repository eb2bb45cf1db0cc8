package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A tracer records spans around the benchmark's calls into each layer. Spans
// are kept in memory and written out once the run ends; nothing inside the
// program under test is instrumented. Callbacks fired millions of times per
// pass (policy decisions) are kept as rollups: one span per parent carrying
// a call count and the summed time, rather than one span per call. A tracer
// is used from one goroutine; concurrent callers hand it their timings once
// they have joined.
type tracer struct {
	origin time.Time
	spans  []span
	// stats aggregates every span by name, including spans past keepSpans.
	stats  map[string]*spanStats
	nextID int
}

// keepSpans bounds the spans held for the written trace. Aggregates keep
// counting past it, so per-layer figures never depend on it.
const keepSpans = 50000

// keepDurations bounds the durations kept per span name for percentiles.
const keepDurations = 1 << 20

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Trace  int    `json:"trace"`  // shared by the spans of one submission or pass
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
	// Count is the number of calls a rollup stands for (1 otherwise).
	Count int64 `json:"count"`
}

type spanStats struct {
	count, total, self int64
	durs               []float64 // ns, for percentiles
}

// spanRef is an open span: children add their time to it before it ends.
type spanRef struct {
	id, trace int
	name      string
	start     time.Time
	childNs   int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), stats: map[string]*spanStats{}}
}

// begin opens a span now; parent may be nil for a root.
func (t *tracer) begin(name string, parent *spanRef) *spanRef {
	return t.beginAt(name, parent, time.Now())
}

// beginAt opens a span that started at start, for a call timed before the
// tracer learned of it.
func (t *tracer) beginAt(name string, parent *spanRef, start time.Time) *spanRef {
	t.nextID++
	r := &spanRef{id: t.nextID, trace: t.nextID, name: name, start: start}
	if parent != nil {
		r.trace = parent.trace
	}
	return r
}

// end closes r under parent (nil for a root).
func (t *tracer) end(r, parent *spanRef) {
	t.endAfter(r, parent, time.Since(r.start))
}

// endAfter closes r with a duration measured by the caller, for spans whose
// children are only known once the call they time has returned.
func (t *tracer) endAfter(r, parent *spanRef, d time.Duration) {
	t.add(r, parent, r.start, d, 1)
}

// endComposite closes a root whose time is the sum of its children rather
// than a wall interval: a submission's plan, rulings and route happen at
// different moments of a pass, and its root span stands for their total.
func (t *tracer) endComposite(r *spanRef) {
	t.add(r, nil, r.start, time.Duration(r.childNs), 1)
}

// child records a finished call of duration d that started at start.
func (t *tracer) child(name string, parent *spanRef, start time.Time, d time.Duration) {
	t.nextID++
	t.add(&spanRef{id: t.nextID, name: name}, parent, start, d, 1)
}

// rollup records count calls totalling d under parent, as one span.
func (t *tracer) rollup(name string, parent *spanRef, count int64, d time.Duration) {
	if count == 0 {
		return
	}
	t.nextID++
	t.add(&spanRef{id: t.nextID, name: name}, parent, parent.start, d, count)
}

func (t *tracer) add(r, parent *spanRef, start time.Time, d time.Duration, count int64) {
	s := span{ID: r.id, Trace: r.trace, Name: r.name, Start: start.Sub(t.origin).Nanoseconds(),
		Dur: d.Nanoseconds(), Self: d.Nanoseconds() - r.childNs, Count: count}
	if parent != nil {
		s.Parent, s.Trace = parent.id, parent.trace
		parent.childNs += s.Dur
	}
	if len(t.spans) < keepSpans {
		t.spans = append(t.spans, s)
	}
	st := t.stats[r.name]
	if st == nil {
		st = &spanStats{}
		t.stats[r.name] = st
	}
	st.count += count
	st.total += s.Dur
	st.self += s.Self
	if count == 1 && len(st.durs) < keepDurations {
		st.durs = append(st.durs, float64(s.Dur))
	}
}

// get returns name's aggregate (zero when never recorded).
func (t *tracer) get(name string) spanStats {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return spanStats{}
}

// write stores the kept spans as JSON lines followed by one summary line
// per span name, under outDir.
func (t *tracer) write(file string) (string, error) {
	path := filepath.Join(outDir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	names := make([]string, 0, len(t.stats))
	for n := range t.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := t.stats[n]
		if err := enc.Encode(map[string]any{"summary": n, "count": st.count, "total_ns": st.total, "self_ns": st.self}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
