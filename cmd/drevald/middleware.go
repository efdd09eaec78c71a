package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/wideevent"
)

// Estimator-regime metrics exported per /evaluate request: the paper's
// §4.1 overlap diagnostics as live histograms, so an operator can see
// a fleet drifting into an untrustworthy regime (ESS/N collapsing,
// weight tails growing, zero-support counts rising) without inspecting
// individual responses.
var (
	evalESSRatio = obs.Default.Histogram("drevald_eval_ess_ratio",
		obs.ExpBuckets(1.0/1024, 2, 11)) // 1/1024 … 1
	evalMaxWeight = obs.Default.Histogram("drevald_eval_max_weight",
		obs.ExpBuckets(0.5, 2, 14)) // 0.5 … 4096
	evalZeroSupport = obs.Default.Histogram("drevald_eval_zero_support",
		obs.ExpBuckets(1, 4, 10)) // 1 … 262144
	bootResamples = obs.Default.Counter("drevald_bootstrap_resamples_total")
	bootSkipped   = obs.Default.Counter("drevald_bootstrap_skipped_total")
)

// Resilience metrics: how often the service degrades, sheds, times out
// or recovers a panic — the operator's view of every non-happy path.
var (
	panicsTotal   = obs.Default.Counter("drevald_panics_total")
	degradedTotal = obs.Default.Counter("drevald_degraded_total")
	timeoutsTotal = obs.Default.Counter("drevald_request_timeouts_total")
	canceledTotal = obs.Default.Counter("drevald_request_canceled_total")
)

// traceSinkDroppedTotal counts span JSONL lines lost to a slow
// -trace-out writer; created eagerly so a healthy zero is visible.
var traceSinkDroppedTotal = obs.Default.Counter("obs_trace_sink_dropped_total")

func init() {
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.Default.Help("obs_trace_sink_dropped_total", "Trace JSONL sink lines dropped because the export queue was full.")
	obs.Default.Help("obs_span_seconds", "Span durations by span name; bucket exemplars carry the trace ID.")
	obs.Default.Help("obs_span_errors_total", "Spans ended in error state, by span name.")
	obs.Default.Help("drevald_http_requests_total", "HTTP requests served, by route and status class.")
	obs.Default.Help("drevald_http_request_seconds", "HTTP request latency, by route.")
	obs.Default.Help("drevald_http_in_flight", "Requests currently being served, by route.")
	obs.Default.Help("drevald_eval_ess_ratio", "ESS/N of the importance weights per /evaluate request.")
	obs.Default.Help("drevald_eval_max_weight", "Largest importance weight per /evaluate request.")
	obs.Default.Help("drevald_eval_zero_support", "Zero-support record count per /evaluate request.")
	obs.Default.Help("drevald_bootstrap_resamples_total", "Bootstrap resamples attempted by /evaluate.")
	obs.Default.Help("drevald_bootstrap_skipped_total", "Bootstrap resamples skipped because the estimator failed.")
	obs.Default.Help("drevald_panics_total", "Handler panics recovered and converted into 500s.")
	obs.Default.Help("drevald_degraded_total", "Responses tagged degraded because overlap diagnostics crossed a threshold.")
	obs.Default.Help("drevald_request_timeouts_total", "Requests answered 503 because -request-timeout expired mid-computation.")
	obs.Default.Help("drevald_request_canceled_total", "Requests answered 503 because the client went away mid-computation.")
	obs.Default.Help("drevald_load_shed_total", "Requests shed with 429 because the admission queue was full, by route.")
	obs.Default.Help("drevald_queue_wait_seconds", "Time admitted requests spent waiting for a compute slot, by route.")
}

// reqIDKey carries the request ID through the request context.
type reqIDKey struct{}

// requestID returns the X-Request-Id assigned by the middleware, or ""
// outside an instrumented handler.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// statusRecorder captures the status code and body size a handler
// writes, for metrics and access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	// wrote tracks whether the handler produced any output, so the
	// panic-recovery middleware knows if a 500 can still be written.
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// statusClass maps a status code to its Prometheus-friendly class label.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// traced reports whether route gets a root span and a wide event per
// request. Only the compute routes are traced: scrapes of /metrics,
// /healthz and /debug/vars would otherwise flood the span ring with
// sub-millisecond timelines and evict the requests worth debugging.
func traced(route string) bool {
	switch route {
	case "/evaluate", "/diagnose", "/ingest":
		return true
	}
	return false
}

// instrument wraps a handler with the service middleware: request-ID
// generation/propagation (X-Request-Id in and out, plus the request
// context), per-route request counters by status class, a latency
// histogram, an in-flight gauge, and a structured access log line.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	latency := obs.Default.Histogram("drevald_http_request_seconds", obs.TimeBuckets, obs.L("route", route))
	inFlight := obs.Default.Gauge("drevald_http_in_flight", obs.L("route", route))
	byClass := map[string]*obs.Counter{}
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		byClass[class] = obs.Default.Counter("drevald_http_requests_total",
			obs.L("route", route), obs.L("code", class))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		// Compute routes get a root span whose trace ID is the request
		// ID, so /debug/traces timelines, histogram exemplars and access
		// logs all correlate on the same key. Handlers reach it through
		// the request context to hang child spans off each phase. The
		// span closes via defer so a panic that escapes this middleware
		// still commits it to metrics and timelines; the extra tail it
		// measures (metric update + access log) is microseconds.
		if traced(route) {
			span := obs.Default.StartRecordedSpan(s.traces, "http"+route, id).
				Attr("route", route).
				Attr("method", r.Method)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
			defer func() {
				span.Attr("status", fmt.Sprint(rec.status))
				if rec.status >= 500 {
					span.SetError(fmt.Sprintf("status %d", rec.status))
				}
				span.End()
			}()
			// The same routes emit exactly one wide event per request:
			// the middleware owns begin and finish, handlers only
			// annotate through the request context, and the deferred
			// Finish commits even when the handler panics (the recovery
			// below has already rewritten the status to 500 by then).
			evb := s.journal.Begin(id, route)
			r = r.WithContext(wideevent.ContextWith(r.Context(), evb))
			defer func() {
				if rec.status >= 400 {
					evb.SetError(fmt.Sprintf("status %d", rec.status))
				}
				evb.Finish(rec.status)
			}()
		}

		inFlight.Inc()
		defer inFlight.Dec()
		start := time.Now()
		func() {
			// Panic recovery: a handler (or injected) panic becomes a
			// 500 and a drevald_panics_total tick instead of killing
			// the connection with an empty reply. If the handler
			// already wrote, the status is only corrected in the
			// metrics/logs — the wire bytes are gone.
			defer func() {
				if p := recover(); p != nil {
					panicsTotal.Inc()
					s.log.Error("handler panic", "id", id, "route", route, "panic", fmt.Sprint(p))
					if !rec.wrote {
						httpError(rec, http.StatusInternalServerError, "internal server error")
					} else {
						rec.status = http.StatusInternalServerError
					}
				}
			}()
			// Chaos hook: lets the fault-injection test suite fail or
			// stall whole requests at the HTTP boundary (point
			// "http/<route>"); a no-op when no plan is active.
			if err := resilience.Inject("http" + route); err != nil {
				httpError(rec, http.StatusInternalServerError, err.Error())
				return
			}
			h(rec, r)
		}()
		dur := time.Since(start)

		latency.Observe(dur.Seconds())
		byClass[statusClass(rec.status)].Inc()
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"route", route,
			"status", rec.status,
			"bytes", rec.bytes,
			"durMs", float64(dur.Microseconds())/1000,
		)
	})
}

// limited puts a handler behind an admission limiter: up to its
// concurrency bound requests run at once, its queue bound more wait
// for a slot (the wait is exported as drevald_queue_wait_seconds), and
// everything beyond that is shed immediately with 429 + Retry-After so
// overload degrades into fast, explicit rejections instead of a pile
// of slow timeouts. A client that gives up while queued gets the usual
// 503 cancellation body.
func limited(l *resilience.Limiter, route string, h http.HandlerFunc) http.HandlerFunc {
	shed := obs.Default.Counter("drevald_load_shed_total", obs.L("route", route))
	queueWait := obs.Default.Histogram("drevald_queue_wait_seconds", obs.TimeBuckets, obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		release, waited, err := l.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, resilience.ErrSaturated) {
				shed.Inc()
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, "server saturated: concurrency and queue limits reached, retry later")
				return
			}
			writeEvalError(w, err)
			return
		}
		defer release()
		queueWait.Observe(waited.Seconds())
		h(w, r)
	}
}
