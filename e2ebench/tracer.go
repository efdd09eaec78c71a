package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// tracer records spans and counts around the benchmark's calls into
// each layer during the traced replay. Spans stay in memory and are
// written out once, at the end. A nil *tracer records nothing, so the
// same pipeline code computes the correctness oracle untraced.
type tracer struct {
	t0    time.Time
	spans []spanRecord
	reqs  []request
	cur   int // current request, -1 outside one
}

// request is one replayed operation: its kind ("evaluate", "ingest",
// "read" or "setup") and the counts recorded while it ran.
type request struct {
	kind   string
	root   int // ID of the root span
	counts map[string]float64
}

// spanRecord is one span: times are nanoseconds since the tracer
// started, Parent is the ID of the causing span (-1 for a root).
type spanRecord struct {
	ID      int    `json:"id"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a request with a root span named kind; every span until
// end is its child and every count lands on it.
func (t *tracer) begin(kind string) {
	if t == nil {
		return
	}
	t.cur = len(t.reqs)
	root := len(t.spans)
	t.reqs = append(t.reqs, request{kind: kind, root: root, counts: map[string]float64{}})
	t.spans = append(t.spans, spanRecord{ID: root, Request: t.cur, Name: kind, Parent: -1, Start: t.now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	t.spans[t.reqs[t.cur].root].End = t.now()
	t.cur = -1
}

// span runs fn as a child span of the current request.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := spanRecord{Request: t.cur, Name: name, Parent: t.reqs[t.cur].root, Start: t.now()}
	fn()
	s.End = t.now()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
}

// spanAllocs is span plus the count of heap allocations fn made.
func (t *tracer) spanAllocs(name, counter string, fn func()) {
	if t == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.span(name, fn)
	runtime.ReadMemStats(&after)
	t.count(counter, float64(after.Mallocs-before.Mallocs))
}

// count adds v to the current request's counter name.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.reqs[t.cur].counts[name] += v
}

// perRequest returns, for every request, the summed milliseconds of
// spans named name (or, for a counter, its value), grouped by kind.
func (t *tracer) perRequest(name string, isSpan bool) map[string][]float64 {
	vals := make([]float64, len(t.reqs))
	if isSpan {
		for _, s := range t.spans {
			if s.Name == name && s.Parent >= 0 {
				vals[s.Request] += float64(s.End-s.Start) / 1e6
			}
		}
	} else {
		for i, r := range t.reqs {
			vals[i] = r.counts[name]
		}
	}
	out := map[string][]float64{}
	for i, r := range t.reqs {
		out[r.kind] = append(out[r.kind], vals[i])
	}
	return out
}

// layer is a layer's value per request: the median over the requests
// of the first kind in kinds on which the layer did any work, or 0
// when it did none on this workload.
func (t *tracer) layer(name string, isSpan bool, kinds ...string) float64 {
	by := t.perRequest(name, isSpan)
	for _, k := range kinds {
		for _, v := range by[k] {
			if v != 0 {
				return median(by[k])
			}
		}
	}
	return 0
}

func (t *tracer) numRequests(kind string) int {
	n := 0
	for _, r := range t.reqs {
		if r.kind == kind {
			n++
		}
	}
	return n
}

// rootMs is the median duration of the requests of kind.
func (t *tracer) rootMs(kind string) float64 {
	var v []float64
	for _, r := range t.reqs {
		if r.kind == kind {
			s := t.spans[r.root]
			v = append(v, float64(s.End-s.Start)/1e6)
		}
	}
	return median(v)
}

// coveredShare is Σ child-span time over Σ root-span time across the
// requests of kind: how much of each replayed request the named
// layers explain.
func (t *tracer) coveredShare(kind string) float64 {
	var child, root int64
	for _, s := range t.spans {
		if t.reqs[s.Request].kind != kind {
			continue
		}
		if s.Parent < 0 {
			root += s.End - s.Start
		} else {
			child += s.End - s.Start
		}
	}
	if root == 0 {
		return 0
	}
	return float64(child) / float64(root)
}

// write dumps every span as one JSON line, in the order spans closed,
// except that a root span precedes its children.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
