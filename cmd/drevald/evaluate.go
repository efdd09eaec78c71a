package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

// maxBootstrapResamples caps options.bootstrap so one request cannot
// monopolize the pool indefinitely.
const maxBootstrapResamples = 10000

// evalOptions mirrors the request "options" object.
type evalOptions struct {
	Clip                 float64 `json:"clip"`
	SelfNormalize        bool    `json:"selfNormalize"`
	EstimatePropensities bool    `json:"estimatePropensities"`
	Bootstrap            int     `json:"bootstrap"`
	Seed                 int64   `json:"seed"`
	// RefreshModel (streamed evaluation only) re-registers the policy
	// fingerprint: the reward model is refit at the current epoch, so
	// the response's staleness resets to zero.
	RefreshModel bool `json:"refreshModel"`
}

// evalRequest is the request body of /evaluate and /diagnose.
type evalRequest struct {
	Trace   []traceio.FlatRecord `json:"trace"`
	Policy  string               `json:"policy"`
	Options evalOptions          `json:"options"`
}

// estimateJSON serializes a core.Estimate.
type estimateJSON struct {
	Value     float64 `json:"value"`
	StdErr    float64 `json:"stdErr"`
	N         int     `json:"n"`
	ESS       float64 `json:"ess"`
	MaxWeight float64 `json:"maxWeight"`
}

func toJSON(e core.Estimate) estimateJSON {
	return estimateJSON{Value: e.Value, StdErr: e.StdErr, N: e.N, ESS: e.ESS, MaxWeight: e.MaxWeight}
}

// diagnosticsJSON serializes core.Diagnostics.
type diagnosticsJSON struct {
	N             int     `json:"n"`
	ESS           float64 `json:"ess"`
	MatchRate     float64 `json:"matchRate"`
	MeanWeight    float64 `json:"meanWeight"`
	MaxWeight     float64 `json:"maxWeight"`
	ZeroSupport   int     `json:"zeroSupport"`
	MinPropensity float64 `json:"minPropensity"`
}

func diagJSON(d core.Diagnostics) diagnosticsJSON {
	return diagnosticsJSON{
		N: d.N, ESS: d.ESS, MatchRate: d.MatchRate, MeanWeight: d.MeanWeight,
		MaxWeight: d.MaxWeight, ZeroSupport: d.ZeroSupport, MinPropensity: d.MinPropensity,
	}
}

// intervalJSON serializes a core.Interval with camelCase keys, matching
// every other field in the response.
type intervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

// evalResponse is the response body of /evaluate. BootstrapSkipped is
// present whenever a bootstrap ran: it counts resamples the estimator
// failed on (and which the interval therefore excludes), so clients can
// tell a fragile CI from a solid one.
type evalResponse struct {
	DM          estimateJSON    `json:"dm"`
	IPS         estimateJSON    `json:"ips"`
	DR          estimateJSON    `json:"dr"`
	Diagnostics diagnosticsJSON `json:"diagnostics"`
	// TraceHealth is the bias observatory's compact verdict on the
	// request's trace (windowed ESS/zero-support extremes, drift alarm
	// count, overall grade). Absent when -bias-windows is 0.
	TraceHealth      *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	DRInterval       *intervalJSON          `json:"drInterval,omitempty"`
	BootstrapSkipped *int                   `json:"bootstrapSkipped,omitempty"`
	// Degraded is true when the trace's overlap diagnostics crossed a
	// configured threshold (see -ess-ratio-floor and friends): the
	// requested estimates are still returned, but DegradedReasons says
	// which diagnostics failed and Fallback carries a variance-robust
	// alternative (clipped self-normalized IPS). Clients should prefer
	// Fallback — or collect a better trace — when Degraded is set.
	Degraded        bool                `json:"degraded"`
	DegradedReasons []resilience.Reason `json:"degradedReasons,omitempty"`
	// FallbackEstimator is the canonical name of the fallback estimate
	// below ("snips-clip" batch, "snips-stream" streamed) — the single
	// field clients, the wide-event journal and the SLO classifiers all
	// read, so the name can never diverge between surfaces.
	FallbackEstimator string        `json:"fallbackEstimator,omitempty"`
	Fallback          *fallbackJSON `json:"fallback,omitempty"`
	// Stream is present iff the response was served from streaming
	// aggregates (empty trace + -wal-dir): which fingerprint answered,
	// the live epoch, and how stale the frozen reward model is.
	Stream *streamMetaJSON `json:"stream,omitempty"`
}

// fallbackJSON is the degraded-mode alternative estimate.
type fallbackJSON struct {
	// Estimator names the fallback ("snips-clip": self-normalized IPS
	// with weights clipped at -fallback-clip).
	Estimator string       `json:"estimator"`
	Estimate  estimateJSON `json:"estimate"`
}

// diagnoseResponse is the /diagnose body: the flat diagnostics plus
// the bias observatory's windowed verdict.
type diagnoseResponse struct {
	diagnosticsJSON
	TraceHealth *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	// Stream mirrors evalResponse.Stream for aggregate-served requests.
	Stream *streamMetaJSON `json:"stream,omitempty"`
}

// parseEvalRequest decodes and validates a batch /evaluate or /diagnose
// request body. It is independent of net/http so the fuzz harness can
// drive it with arbitrary bytes: malformed input must produce an error,
// never a panic.
func parseEvalRequest(body io.Reader) (*evalRequest, core.Trace[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], error) {
	req, err := decodeEvalBody(body)
	if err != nil {
		return nil, nil, nil, err
	}
	trace, policy, err := buildEvalInputs(req)
	if err != nil {
		return nil, nil, nil, err
	}
	return req, trace, policy, nil
}

// decodeEvalBody is the pure JSON step of parseEvalRequest, split out
// so the pipeline can branch to streamed evaluation (empty trace + an
// active engine) before batch validation rejects the empty trace.
func decodeEvalBody(body io.Reader) (*evalRequest, error) {
	var req evalRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// %w so the caller can distinguish an oversized body
		// (*http.MaxBytesError → 413) from plain bad JSON (400).
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return &req, nil
}

// validateFiniteRecords rejects non-finite numerics up front with a
// record-addressed message. Standard JSON cannot encode NaN/Inf, but
// permissive clients exist and a NaN that slips past here poisons
// every weighted sum downstream. Shared by /evaluate, /diagnose and
// /ingest.
func validateFiniteRecords(records []traceio.FlatRecord) error {
	for i, rec := range records {
		if math.IsNaN(rec.Reward) || math.IsInf(rec.Reward, 0) {
			return fmt.Errorf("record %d: reward must be finite, got %g", i, rec.Reward)
		}
		if math.IsNaN(rec.Propensity) || math.IsInf(rec.Propensity, 0) {
			return fmt.Errorf("record %d: propensity must be finite, got %g", i, rec.Propensity)
		}
		for j, f := range rec.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("record %d: feature %d must be finite, got %g", i, j, f)
			}
		}
	}
	return nil
}

// buildEvalInputs is the validation half of parseEvalRequest: it turns
// a decoded batch request into a validated trace and parsed policy.
func buildEvalInputs(req *evalRequest) (core.Trace[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], error) {
	if len(req.Trace) == 0 {
		return nil, nil, errors.New("empty trace")
	}
	if err := validateFiniteRecords(req.Trace); err != nil {
		return nil, nil, err
	}
	if req.Options.Bootstrap < 0 {
		return nil, nil, fmt.Errorf("options.bootstrap must not be negative, got %d", req.Options.Bootstrap)
	}
	if req.Options.Bootstrap > maxBootstrapResamples {
		return nil, nil, fmt.Errorf("options.bootstrap %d exceeds the maximum of %d resamples", req.Options.Bootstrap, maxBootstrapResamples)
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: req.Trace})
	if req.Options.EstimatePropensities {
		if err := core.EstimatePropensities(trace, func(c traceio.FlatContext) string {
			return c.Key()
		}, 5, 1e-3); err != nil {
			return nil, nil, fmt.Errorf("propensity estimation: %v", err)
		}
	}
	if err := trace.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%v (set options.estimatePropensities if the trace has none)", err)
	}
	policy, err := traceio.ParsePolicy(req.Policy, trace)
	if err != nil {
		return nil, nil, err
	}
	return trace, policy, nil
}

// evalRun carries one /evaluate or /diagnose request through the shared
// pipeline. Its source is either the request's inline trace (view and
// policy set) or the streaming aggregates (stream set); diag is the
// overlap diagnostics either way.
type evalRun struct {
	req    *evalRequest
	ctx    context.Context
	cancel context.CancelFunc
	root   *obs.Span
	evb    *wideevent.Builder

	view   *core.TraceView[traceio.FlatContext, string]
	policy core.Policy[traceio.FlatContext, string]
	stream *streamResult

	diag   core.Diagnostics
	health *biasobs.HealthSummary // nil when the observatory did not run
}

// streamed reports whether req is served from the streaming aggregates:
// an empty trace with streaming enabled.
func (s *Server) streamed(req *evalRequest) bool {
	return len(req.Trace) == 0 && s.stream != nil
}

// begin is the first step of the pipeline: decode the body (400, or
// 413 when oversized), stamp the policy on the wide event, check a
// streamed request's engine is serving (503 while replaying) and open
// the compute context: the request's own, bounded by -request-timeout.
// When it returns true the caller must defer run.cancel.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (*evalRun, bool) {
	req, err := decodeEvalBody(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		httpError(w, bodyErrorStatus(err), err.Error())
		return nil, false
	}
	run := &evalRun{req: req, root: obs.SpanFromContext(r.Context()), evb: wideevent.FromContext(r.Context())}
	run.evb.SetPolicy(req.Policy)
	if s.streamed(req) && s.stream.unavailable(w) {
		return nil, false
	}
	if s.cfg.RequestTimeout > 0 {
		run.ctx, run.cancel = context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	} else {
		run.ctx, run.cancel = context.WithCancel(r.Context())
	}
	return run, true
}

// prepare is the rest of the shared prefix: resolve the source into
// overlap diagnostics — an inline trace is validated, interned into a
// columnar view, diagnosed and passed through the bias observatory; a
// streamed request reads its fingerprint's aggregates in a phase named
// streamPhase — then stamp the regime and bias grade on the wide event.
// It writes the error response itself and reports whether to go on.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, run *evalRun, streamPhase string) bool {
	var err error
	if s.streamed(run.req) {
		if run.req.Options.EstimatePropensities {
			httpError(w, http.StatusBadRequest, "options.estimatePropensities is unavailable for streamed evaluation (propensities must be logged at ingest)")
			return false
		}
		err = s.readStream(run, streamPhase)
	} else {
		trace, policy, verr := buildEvalInputs(run.req)
		if verr != nil {
			httpError(w, http.StatusBadRequest, verr.Error())
			return false
		}
		err = s.diagnoseTrace(run, requestID(r), trace, policy)
	}
	if err != nil {
		writeEvalError(w, err)
		return false
	}
	d := run.diag
	run.evb.SetRegime(d.ESS/float64(d.N), d.MaxWeight, d.ZeroSupport)
	if run.health != nil {
		run.evb.SetBiasGrade(run.health.Grade)
	}
	return true
}

// diagnoseTrace is the inline-trace source: intern the trace once into
// a columnar view that every later phase (diagnostics, model fit,
// estimators, bootstrap) reads — bit-identical to the record-slice
// path, proved by internal/core's view equivalence suite.
func (s *Server) diagnoseTrace(run *evalRun, id string, trace core.Trace[traceio.FlatContext, string], policy core.Policy[traceio.FlatContext, string]) error {
	ctx := run.ctx
	buildStart := time.Now()
	view, err := timed(ctx, run.root, "build_view", func() (*core.TraceView[traceio.FlatContext, string], error) {
		return core.NewTraceViewKeyedCtx(ctx, trace, traceio.FlatContext.Key)
	})
	if err != nil {
		return err
	}
	s.recordTraceSummary(view, time.Since(buildStart))
	run.view, run.policy = view, policy
	if run.diag, err = timed(ctx, run.root, "diagnose", func() (core.Diagnostics, error) {
		return core.DiagnoseViewCtx(ctx, view, policy)
	}); err != nil {
		return err
	}
	run.health, err = s.observeBias(ctx, run.root, id, view, policy)
	return err
}

// readStream is the streamed source: one O(1) read of the request's
// (policy, clip) fingerprint, registering it on first use.
func (s *Server) readStream(run *evalRun, phase string) error {
	opts := run.req.Options
	sr, err := timed(run.ctx, run.root, phase, func() (streamResult, error) {
		return s.stream.evaluate(run.req.Policy, opts.Clip, opts.RefreshModel)
	})
	if err != nil {
		return err
	}
	run.stream, run.diag = &sr, sr.est.Diagnostics
	run.evb.SetStream(sr.meta.Epoch, sr.meta.ModelEpoch, sr.meta.StalenessRecords)
	return nil
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	run, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer run.cancel()
	if s.prepare(w, r, run, "stream_diagnose") {
		writeJSON(w, diagnoseResponse{diagnosticsJSON: diagJSON(run.diag), TraceHealth: run.health, Stream: run.stream.metaJSON()})
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	run, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer run.cancel()
	opts := run.req.Options
	// Streamed evaluation answers from running sums; a bootstrap needs
	// the raw records.
	if s.streamed(run.req) && opts.Bootstrap != 0 {
		httpError(w, http.StatusBadRequest, "options.bootstrap is unavailable for streamed evaluation (send the trace inline to bootstrap)")
		return
	}
	if !s.prepare(w, r, run, "stream_evaluate") {
		return
	}
	// Export the request's overlap regime — the continuously watched
	// version of the diagnostics this response returns once.
	d := run.diag
	evalESSRatio.Observe(d.ESS / float64(d.N))
	evalMaxWeight.Observe(d.MaxWeight)
	evalZeroSupport.Observe(float64(d.ZeroSupport))
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("evaluate diagnostics", "id", requestID(r), "n", d.N,
			"essRatio", d.ESS/float64(d.N), "maxWeight", d.MaxWeight, "zeroSupport", d.ZeroSupport)
	}
	dm, ips, dr, err := estimates(run)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	resp := evalResponse{DM: toJSON(dm), IPS: toJSON(ips), DR: toJSON(dr), Diagnostics: diagJSON(d),
		TraceHealth: run.health, Stream: run.stream.metaJSON()}
	if err := s.degrade(r, run, &resp); err != nil {
		writeEvalError(w, err)
		return
	}
	if b := opts.Bootstrap; b > 0 {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		// Sharded bootstrap: resamples run on the worker pool, one PCG
		// stream per resample, so the interval depends only on the seed.
		ci, stats, err := func() (core.Interval, core.BootstrapStats, error) {
			defer run.evb.Phase("drevald_bootstrap")()
			sp := run.root.StartChild("drevald_bootstrap").
				Attr("resamples", fmt.Sprint(b))
			defer sp.End()
			// Refit-DR bootstrap by index over the view: running
			// sufficient statistics per resample, no record copies.
			ci, stats, err := core.BootstrapDRViewSeededStatsCtx(run.ctx, run.view, run.policy,
				core.DROptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize}, seed, b, 0.95)
			if err != nil {
				sp.SetError(err.Error())
			}
			return ci, stats, err
		}()
		bootResamples.Add(uint64(stats.Resamples))
		bootSkipped.Add(uint64(stats.Skipped))
		run.evb.SetBootstrap(stats.Resamples, stats.Skipped)
		if err != nil {
			writeEvalError(w, err)
			return
		}
		resp.DRInterval = &intervalJSON{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
		resp.BootstrapSkipped = &stats.Skipped
	}
	writeJSON(w, resp)
}

// estimates returns DM, IPS and DR (their self-normalized variants
// under options.selfNormalize): read off the streamed aggregates, or
// computed over the view as traced phases after fitting the reward
// model.
func estimates(run *evalRun) (dm, ips, dr core.Estimate, err error) {
	opts := run.req.Options
	if sr := run.stream; sr != nil {
		if opts.SelfNormalize {
			return sr.est.DM, sr.est.SNIPS, sr.est.SNDR, nil
		}
		return sr.est.DM, sr.est.IPS, sr.est.DR, nil
	}
	ctx, root, view, policy := run.ctx, run.root, run.view, run.policy
	model, err := timed(ctx, root, "fit_model", func() (*core.ViewTableModel[traceio.FlatContext, string], error) {
		return core.FitTableViewCtx(ctx, view)
	})
	if err != nil {
		return
	}
	if dm, err = timed(ctx, root, "direct_method", func() (core.Estimate, error) {
		return core.DirectMethodViewCtx(ctx, view, policy, model)
	}); err != nil {
		return
	}
	if ips, err = timed(ctx, root, "ips", func() (core.Estimate, error) {
		return core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize})
	}); err != nil {
		return
	}
	dr, err = timed(ctx, root, "doubly_robust", func() (core.Estimate, error) {
		return core.DoublyRobustViewCtx(ctx, view, policy, model, core.DROptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize})
	})
	return
}

// degrade is graceful degradation: when the overlap diagnostics cross
// a configured threshold — or a drift alarm fires under
// -degrade-on-drift, the streamed reward model is older than
// -max-model-age, or an SLO pages under -degrade-on-slo-page — the
// response still carries every requested estimate, but is tagged
// degraded with machine-readable reasons and a variance-robust
// fallback, never a bare error.
func (s *Server) degrade(r *http.Request, run *evalRun, resp *evalResponse) error {
	d := run.diag
	reasons := s.thresholds.Check(d.N, d.ESS, d.MaxWeight, d.ZeroSupport)
	if s.cfg.DegradeOnDrift && run.health != nil && run.health.Alarms > 0 {
		reasons = append(reasons, resilience.DriftReason(run.health.Alarms, s.cfg.BiasDriftThreshold))
	}
	if sr := run.stream; sr != nil && s.cfg.MaxModelAge > 0 && uint64(sr.meta.StalenessRecords) > s.cfg.MaxModelAge {
		reasons = append(reasons, resilience.StaleAggregatesReason(uint64(sr.meta.StalenessRecords), s.cfg.MaxModelAge))
	}
	reasons = append(reasons, s.sloDegradeReasons()...)
	if len(reasons) == 0 {
		return nil
	}
	// The degraded path is an error from the observability side even
	// though the response is a 200: mark the request's root span so
	// obs_span_errors_total{span="http/evaluate"} and the timeline
	// surface it.
	source := "overlap"
	if run.stream != nil {
		source = "stream"
	}
	run.root.Attr("degraded", "true")
	run.root.SetError("degraded: " + source + " diagnostics crossed thresholds")
	name, fb, err := s.fallback(run)
	if err != nil {
		return err
	}
	resp.Degraded = true
	resp.DegradedReasons = reasons
	resp.FallbackEstimator = name
	resp.Fallback = &fallbackJSON{Estimator: name, Estimate: toJSON(fb)}
	run.evb.SetDegraded(reasonCodes(reasons))
	run.evb.SetFallback(name)
	degradedTotal.Inc()
	s.log.Warn("degraded response", "id", requestID(r), "source", source, "reasons", len(reasons))
	return nil
}

// fallback is the degraded-mode estimate: clipped self-normalized IPS
// over the view, or the streamed SNIPS aggregate, which needs no reward
// model and so cannot go stale.
func (s *Server) fallback(run *evalRun) (string, core.Estimate, error) {
	if run.stream != nil {
		return "snips-stream", run.stream.est.SNIPS, nil
	}
	fb, err := timed(run.ctx, run.root, "fallback", func() (core.Estimate, error) {
		return core.IPSViewCtx(run.ctx, run.view, run.policy, core.IPSOptions{Clip: s.cfg.FallbackClip, SelfNormalize: true})
	})
	return "snips-clip", fb, err
}

// writeEvalError renders a compute-path failure. Context expiry becomes
// 503 with a machine-readable flag ({"timeout":true} for a deadline,
// {"canceled":true} for client abandonment) so callers and the CI smoke
// test can distinguish overload from bad input; everything else is the
// usual 422.
func writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		timeoutsTotal.Inc()
		writeJSONStatus(w, http.StatusServiceUnavailable, evalErrorJSON{
			Error:   "request deadline exceeded before evaluation finished",
			Timeout: true,
		})
	case errors.Is(err, context.Canceled):
		canceledTotal.Inc()
		writeJSONStatus(w, http.StatusServiceUnavailable, evalErrorJSON{
			Error:    "request canceled before evaluation finished",
			Canceled: true,
		})
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// evalErrorJSON is the error body of /evaluate and /diagnose.
type evalErrorJSON struct {
	Error    string `json:"error"`
	Timeout  bool   `json:"timeout,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// timed runs one evaluation phase as a named child span of the
// request's root span (started by the instrument middleware), marking
// the span failed when the phase errors. The same name accumulates
// into the request's wide event as a phaseMs entry, read from ctx —
// one instrumentation point feeds both the span tree and the journal.
// With no root span in the context, StartChild degrades to a fresh
// root, so the phase is still measured; with no wide-event builder,
// the phase hook is a no-op.
func timed[T any](ctx context.Context, parent *obs.Span, name string, fn func() (T, error)) (T, error) {
	endPhase := wideevent.FromContext(ctx).Phase(name)
	defer endPhase()
	sp := parent.StartChild(name)
	defer sp.End()
	v, err := fn()
	if err != nil {
		sp.SetError(err.Error())
	}
	return v, err
}

// bodyErrorStatus maps a request-body decode failure to its status:
// 413 for a body over the size limit, 400 for anything else.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus writes v as the JSON response body with status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("drevald: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSONStatus(w, code, map[string]string{"error": msg})
}
