package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// SpanRecord is the immutable, completed form of a Span: what the trace
// recorder keeps after End. Records are grouped by Trace (the
// correlation ID shared by a request's root span and all its children)
// and linked parent→child via Span / Parent, so a request can be
// reassembled into a timeline after the fact.
type SpanRecord struct {
	// Trace is the correlation ID shared by every span of one request.
	Trace string `json:"trace"`
	// Span uniquely identifies this span within the process.
	Span string `json:"span"`
	// Parent is the Span ID of the parent, empty at the root.
	Parent string `json:"parent,omitempty"`
	// Name is the span name, e.g. "drevald_bootstrap".
	Name string `json:"name"`
	// Start is when the span was opened.
	Start time.Time `json:"start"`
	// DurationSeconds is the span's wall time.
	DurationSeconds float64 `json:"durationSeconds"`
	// Attrs are the key=value attributes attached with Span.Attr.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Error is the message set with Span.SetError, empty on success.
	Error string `json:"error,omitempty"`

	// seq is the commit sequence number, used to order exports and to
	// detect which ring generation a slot belongs to.
	seq uint64
}

// TraceRecorder keeps the most recent completed spans in a fixed-size
// ring buffer. Writes are lock-free — a single atomic sequence bump
// plus an atomic pointer store — so recording a span costs about as
// much as a histogram observation and can sit on every request path.
// Old spans are overwritten once the ring wraps, which bounds memory
// regardless of traffic. An optional sink receives every record as one
// JSON line (JSONL) at completion time: lines are marshalled by the
// recording goroutine but written by a single background drainer, so
// a slow sink (e.g. the -trace-out file) never blocks request paths —
// lines that would block are dropped and counted instead.
type TraceRecorder struct {
	slots []atomic.Pointer[SpanRecord]
	next  atomic.Uint64
	sink  LineSink
}

// NewTraceRecorder returns a recorder holding up to capacity completed
// spans (minimum 1).
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRecorder{slots: make([]atomic.Pointer[SpanRecord], capacity)}
}

// Capacity returns the ring size.
func (tr *TraceRecorder) Capacity() int { return len(tr.slots) }

// Recorded returns how many spans have been committed over the
// recorder's lifetime (not how many are still buffered).
func (tr *TraceRecorder) Recorded() uint64 { return tr.next.Load() }

// SetSink installs (or, with nil, removes) a JSONL sink. Each completed
// span is marshalled to one newline-terminated line with the
// LineSink contract: a slow w never blocks span End, overflow is
// dropped and counted (SinkDropped), and after SetSink(nil) returns
// every delivered line has been written.
func (tr *TraceRecorder) SetSink(w func(line []byte)) { tr.sink.Set(w) }

// SinkDropped reports how many JSONL lines were discarded because the
// sink queue was full (the sink writer could not keep up).
func (tr *TraceRecorder) SinkDropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.sink.Dropped()
}

// record commits one completed span. Called from Span.End; nil-safe so
// spans on registries without a recorder cost nothing extra. The sink
// hand-off is non-blocking: the immutable record is marshalled here and
// queued for the drainer or dropped.
func (tr *TraceRecorder) record(rec *SpanRecord) {
	if tr == nil || rec == nil {
		return
	}
	seq := tr.next.Add(1) - 1
	rec.seq = seq
	tr.slots[seq%uint64(len(tr.slots))].Store(rec)
	tr.sink.Write(rec)
}

// Records returns a snapshot of the buffered spans in commit order
// (oldest first). Concurrent writers may overwrite slots while the
// snapshot is taken; each returned record is nevertheless internally
// consistent because slots hold immutable pointers.
func (tr *TraceRecorder) Records() []SpanRecord {
	if tr == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(tr.slots))
	for i := range tr.slots {
		if p := tr.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// TimelineSpan is one node of a reassembled request timeline: the
// span's place relative to the root plus its subtree.
type TimelineSpan struct {
	Name string `json:"name"`
	Span string `json:"span"`
	// StartOffsetMs is the span's start relative to the root span.
	StartOffsetMs float64           `json:"startOffsetMs"`
	DurationMs    float64           `json:"durationMs"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Error         string            `json:"error,omitempty"`
	Children      []TimelineSpan    `json:"children,omitempty"`
}

// Timeline is one request reassembled from its recorded spans: the root
// span with every surviving descendant nested under it.
type Timeline struct {
	Trace      string       `json:"trace"`
	Root       string       `json:"root"`
	Start      time.Time    `json:"start"`
	DurationMs float64      `json:"durationMs"`
	Error      string       `json:"error,omitempty"`
	Spans      TimelineSpan `json:"spans"`
}

// Slowest reassembles the buffered spans into per-request timelines and
// returns the n slowest by root-span duration, slowest first. Child
// spans whose root was already evicted from the ring are dropped —
// a timeline always starts at its root.
func (tr *TraceRecorder) Slowest(n int) []Timeline {
	if tr == nil || n < 1 {
		return nil
	}
	recs := tr.Records()
	// Group by trace ID; find roots (no parent). A trace ID can in
	// principle carry several roots (e.g. a client reusing a request
	// ID); each root becomes its own timeline.
	byTrace := make(map[string][]SpanRecord)
	for _, r := range recs {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	var out []Timeline
	for _, group := range byTrace {
		for _, r := range group {
			if r.Parent != "" {
				continue
			}
			out = append(out, Timeline{
				Trace:      r.Trace,
				Root:       r.Name,
				Start:      r.Start,
				DurationMs: r.DurationSeconds * 1000,
				Error:      r.Error,
				Spans:      buildSubtree(r, group),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:allow floathygiene sort tie-break wants exact inequality; an epsilon would destabilize the order
		if out[i].DurationMs != out[j].DurationMs {
			return out[i].DurationMs > out[j].DurationMs
		}
		return out[i].Trace < out[j].Trace
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// buildSubtree nests every descendant of root found in group under it,
// children ordered by start time then span ID for determinism.
func buildSubtree(root SpanRecord, group []SpanRecord) TimelineSpan {
	node := TimelineSpan{
		Name:          root.Name,
		Span:          root.Span,
		StartOffsetMs: 0,
		DurationMs:    root.DurationSeconds * 1000,
		Attrs:         root.Attrs,
		Error:         root.Error,
	}
	// The recursion anchors offsets at the original root, carried via
	// closure over rootStart.
	rootStart := root.Start
	var attach func(parent *TimelineSpan, parentID string)
	attach = func(parent *TimelineSpan, parentID string) {
		var kids []SpanRecord
		for _, r := range group {
			if r.Parent == parentID && r.Span != parentID {
				kids = append(kids, r)
			}
		}
		sort.Slice(kids, func(i, j int) bool {
			if !kids[i].Start.Equal(kids[j].Start) {
				return kids[i].Start.Before(kids[j].Start)
			}
			return kids[i].Span < kids[j].Span
		})
		for _, k := range kids {
			child := TimelineSpan{
				Name:          k.Name,
				Span:          k.Span,
				StartOffsetMs: k.Start.Sub(rootStart).Seconds() * 1000,
				DurationMs:    k.DurationSeconds * 1000,
				Attrs:         k.Attrs,
				Error:         k.Error,
			}
			attach(&child, k.Span)
			parent.Children = append(parent.Children, child)
		}
	}
	attach(&node, root.Span)
	return node
}

// tracesResponse is the JSON body served by Handler.
type tracesResponse struct {
	// Buffered is how many spans the ring currently retains; Recorded
	// how many were committed over the process lifetime.
	Buffered int        `json:"buffered"`
	Recorded uint64     `json:"recorded"`
	Traces   []Timeline `json:"traces"`
}

// Handler serves the slowest-N request timelines as JSON
// (GET …?n=10, default 10, capped at 100).
func (tr *TraceRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 10
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "n must be a positive integer"})
				return
			}
			n = v
		}
		if n > 100 {
			n = 100
		}
		timelines := tr.Slowest(n)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(tracesResponse{
			Buffered: len(tr.Records()),
			Recorded: tr.Recorded(),
			Traces:   timelines,
		})
	})
}

// SetTraceRecorder installs the recorder completed spans commit to
// (nil to disable). Spans capture the recorder at StartSpan time.
func (r *Registry) SetTraceRecorder(tr *TraceRecorder) {
	r.traceRec.Store(tr)
}

// TraceRecorder returns the registry's recorder, or nil when tracing is
// disabled.
func (r *Registry) TraceRecorder() *TraceRecorder {
	return r.traceRec.Load()
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx with sp attached, so layers below an
// instrumented boundary can open child spans without plumbing *Span
// through every signature.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span attached with ContextWithSpan, or
// nil. Combined with the nil-safe StartChild, callers can write
// obs.SpanFromContext(ctx).StartChild("phase") unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
