package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/changepoint"
	"drnet/internal/core"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/traceio"
	"drnet/internal/walog"
	"drnet/internal/wideevent"
)

// This file replays drevald's request pipeline in-process: the same
// public calls into traceio, core, biasobs, walog and wideevent, in
// the same order and with drevald's default settings. drevald's own
// handler code is package main and cannot be imported, so its stdlib
// steps (JSON decode, validation, encode) are mirrored on local types.
// Untraced, it is the correctness oracle; traced, it yields the
// per-layer numbers.

type flatCtx = traceio.FlatContext

// drevald's default degradation settings (flags left unset).
const fallbackClip = 10.0

// Response types, mirroring drevald's JSON field for field.
type estimateJSON struct {
	Value     float64 `json:"value"`
	StdErr    float64 `json:"stdErr"`
	N         int     `json:"n"`
	ESS       float64 `json:"ess"`
	MaxWeight float64 `json:"maxWeight"`
}

type diagnosticsJSON struct {
	N             int     `json:"n"`
	ESS           float64 `json:"ess"`
	MatchRate     float64 `json:"matchRate"`
	MeanWeight    float64 `json:"meanWeight"`
	MaxWeight     float64 `json:"maxWeight"`
	ZeroSupport   int     `json:"zeroSupport"`
	MinPropensity float64 `json:"minPropensity"`
}

type intervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

type fallbackJSON struct {
	Estimator string       `json:"estimator"`
	Estimate  estimateJSON `json:"estimate"`
}

type streamMetaJSON struct {
	Fingerprint      string `json:"fingerprint"`
	Epoch            int    `json:"epoch"`
	ModelEpoch       int    `json:"modelEpoch"`
	StalenessRecords int    `json:"stalenessRecords"`
}

type evalResponse struct {
	DM                estimateJSON           `json:"dm"`
	IPS               estimateJSON           `json:"ips"`
	DR                estimateJSON           `json:"dr"`
	Diagnostics       diagnosticsJSON        `json:"diagnostics"`
	TraceHealth       *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	DRInterval        *intervalJSON          `json:"drInterval,omitempty"`
	BootstrapSkipped  *int                   `json:"bootstrapSkipped,omitempty"`
	Degraded          bool                   `json:"degraded"`
	DegradedReasons   []resilience.Reason    `json:"degradedReasons,omitempty"`
	FallbackEstimator string                 `json:"fallbackEstimator,omitempty"`
	Fallback          *fallbackJSON          `json:"fallback,omitempty"`
	Stream            *streamMetaJSON        `json:"stream,omitempty"`
}

type ingestResponse struct {
	Acked   int    `json:"acked"`
	Seq     uint64 `json:"seq"`
	Segment string `json:"segment"`
	Durable bool   `json:"durable"`
	Epoch   int    `json:"epoch"`
}

func toJSON(e core.Estimate) estimateJSON {
	return estimateJSON{Value: e.Value, StdErr: e.StdErr, N: e.N, ESS: e.ESS, MaxWeight: e.MaxWeight}
}

func diagJSON(d core.Diagnostics) diagnosticsJSON {
	return diagnosticsJSON{
		N: d.N, ESS: d.ESS, MatchRate: d.MatchRate, MeanWeight: d.MeanWeight,
		MaxWeight: d.MaxWeight, ZeroSupport: d.ZeroSupport, MinPropensity: d.MinPropensity,
	}
}

// countingPolicy counts Distribution calls; the estimators may call it
// from worker goroutines, hence the atomic.
type countingPolicy struct {
	p     core.Policy[flatCtx, string]
	calls *atomic.Int64
}

func (c countingPolicy) Distribution(x flatCtx) []core.Weighted[string] {
	c.calls.Add(1)
	return c.p.Distribution(x)
}

// countingKey wraps FlatContext.Key, counting calls.
func countingKey(calls *atomic.Int64) func(flatCtx) string {
	return func(c flatCtx) string {
		calls.Add(1)
		return c.Key()
	}
}

// newJournal mirrors drevald's default wide-event journal, with the
// default SLO engine observing every event.
func newJournal() (*wideevent.Journal, error) {
	eng, err := slo.New(slo.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	j := wideevent.NewJournal(wideevent.Options{Capacity: 1024, SampleRate: 1, SlowMs: 250, Seed: 1})
	j.Observe(eng.Observe)
	return j, nil
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func validateFinite(records []traceio.FlatRecord) error {
	for i, rec := range records {
		if math.IsNaN(rec.Reward) || math.IsInf(rec.Reward, 0) ||
			math.IsNaN(rec.Propensity) || math.IsInf(rec.Propensity, 0) {
			return fmt.Errorf("record %d: non-finite value", i)
		}
		for _, f := range rec.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("record %d: non-finite feature", i)
			}
		}
	}
	return nil
}

// cpuNow is this process's user+system CPU time. getrusage fails only
// for an invalid argument, which RUSAGE_SELF is not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recordEvent is one request's wide-event lifecycle: Begin, one Phase
// per layer drevald times, the annotations, Finish.
func recordEvent(tr *tracer, j *wideevent.Journal, id, route string, phases []string, annotate func(*wideevent.Builder)) {
	tr.span("wideevent.record", func() {
		b := j.Begin(id, route)
		for _, p := range phases {
			b.Phase(p)()
		}
		annotate(b)
		b.Finish(200)
	})
}

var evalPhases = []string{"build_view", "diagnose", "bias_observatory", "fit_model", "direct_method", "ips", "doubly_robust"}

// evaluatePipeline answers one /evaluate body the way drevald does and
// returns the encoded response.
func evaluatePipeline(ctx context.Context, tr *tracer, j *wideevent.Journal, id string, body []byte) ([]byte, error) {
	var (
		req    evalRequest
		trace  core.Trace[flatCtx, string]
		parsed core.Policy[flatCtx, string]
		err    error
	)
	tr.spanAllocs("drevald.decode", "drevald.decode_allocs", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if len(req.Trace) == 0 {
		return nil, errors.New("empty trace")
	}
	tr.span("core.validate", func() {
		err = validateFinite(req.Trace)
		if err == nil && (req.Options.Bootstrap < 0 || req.Options.Bootstrap > 10000) {
			err = errors.New("options.bootstrap out of range")
		}
	})
	if err != nil {
		return nil, err
	}
	tr.span("traceio.to_core", func() { trace = traceio.ToCore(traceio.FlatTrace{Records: req.Trace}) })
	tr.span("core.validate", func() { err = trace.Validate() })
	if err != nil {
		return nil, err
	}
	tr.span("traceio.parse_policy", func() { parsed, err = traceio.ParsePolicy(req.Policy, trace) })
	if err != nil {
		return nil, err
	}

	var keyCalls, policyCalls atomic.Int64
	policy := countingPolicy{p: parsed, calls: &policyCalls}
	var view *core.TraceView[flatCtx, string]
	tr.spanAllocs("core.build_view", "core.build_view_allocs", func() {
		view, err = core.NewTraceViewKeyedCtx(ctx, trace, countingKey(&keyCalls))
	})
	if err != nil {
		return nil, err
	}
	tr.count("core.unique_contexts", float64(view.NumContexts()))

	var (
		diag        core.Diagnostics
		report      *biasobs.Report
		model       *core.ViewTableModel[flatCtx, string]
		dm, ips, dr core.Estimate
		errs        [6]error
	)
	tr.span("core.diagnose", func() { diag, errs[0] = core.DiagnoseViewCtx(ctx, view, policy) })
	tr.span("biasobs.compute", func() {
		report, errs[1] = biasobs.ComputeCtx(ctx, view, policy, biasobs.Config{
			Windows:        biasobs.DefaultWindows,
			DriftThreshold: changepoint.DefaultThreshold,
		})
	})
	tr.span("core.fit", func() { model, errs[2] = core.FitTableViewCtx(ctx, view) })
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	opts := req.Options
	tr.span("core.dm", func() { dm, errs[3] = core.DirectMethodViewCtx(ctx, view, policy, model) })
	tr.span("core.ips", func() {
		ips, errs[4] = core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize})
	})
	tr.span("core.dr", func() {
		dr, errs[5] = core.DoublyRobustViewCtx(ctx, view, policy, model, core.DROptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize})
	})
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	health := report.Summary()
	resp := evalResponse{DM: toJSON(dm), IPS: toJSON(ips), DR: toJSON(dr), Diagnostics: diagJSON(diag), TraceHealth: &health}
	phases := evalPhases
	reasons := resilience.DefaultThresholds().Check(diag.N, diag.ESS, diag.MaxWeight, diag.ZeroSupport)
	if len(reasons) > 0 {
		var fb core.Estimate
		tr.span("core.fallback", func() {
			fb, err = core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: fallbackClip, SelfNormalize: true})
		})
		if err != nil {
			return nil, err
		}
		resp.Degraded = true
		resp.DegradedReasons = reasons
		resp.FallbackEstimator = "snips-clip"
		resp.Fallback = &fallbackJSON{Estimator: resp.FallbackEstimator, Estimate: toJSON(fb)}
		phases = append(phases[:len(phases):len(phases)], "fallback")
	}
	var stats core.BootstrapStats
	if b := opts.Bootstrap; b > 0 {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		var ci core.Interval
		cpu0 := cpuNow()
		tr.span("core.bootstrap", func() {
			ci, stats, err = core.BootstrapDRViewSeededStatsCtx(ctx, view, policy,
				core.DROptions{Clip: opts.Clip, SelfNormalize: opts.SelfNormalize}, seed, b, 0.95)
		})
		tr.count("core.bootstrap_cpu_ms", float64(cpuNow()-cpu0)/1e6)
		tr.count("core.bootstrap_resamples", float64(stats.Resamples))
		tr.count("core.bootstrap_skipped", float64(stats.Skipped))
		if err != nil {
			return nil, err
		}
		resp.DRInterval = &intervalJSON{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
		resp.BootstrapSkipped = &stats.Skipped
		phases = append(phases[:len(phases):len(phases)], "drevald_bootstrap")
	}
	tr.count("traceio.key_calls", float64(keyCalls.Load()))
	tr.count("core.policy_calls", float64(policyCalls.Load()))

	var out []byte
	tr.span("drevald.encode", func() { out, err = encodeJSON(resp) })
	if err != nil {
		return nil, err
	}
	tr.count("drevald.encode_bytes", float64(len(out)))
	recordEvent(tr, j, id, "/evaluate", phases, func(b *wideevent.Builder) {
		b.SetPolicy(req.Policy)
		b.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
		b.SetBiasGrade(health.Grade)
		if resp.Degraded {
			codes := make([]string, len(reasons))
			for i, r := range reasons {
				codes[i] = r.Code
			}
			b.SetDegraded(codes)
			b.SetFallback(resp.FallbackEstimator)
		}
		if opts.Bootstrap > 0 {
			b.SetBootstrap(stats.Resamples, stats.Skipped)
		}
	})
	return out, nil
}

// stream mirrors drevald's streaming engine over a WAL: replay, then
// durable ingest folded into the view and one policy's aggregates, and
// O(1) streamed reads.
type stream struct {
	wal      *walog.Log
	builder  *core.ViewBuilder[flatCtx, string]
	records  core.Trace[flatCtx, string]
	keyCalls atomic.Int64
	polCalls atomic.Int64
	journal  *wideevent.Journal

	eval        *core.StreamEval[flatCtx, string]
	fingerprint string
	modelEpoch  int
}

// openStream opens the WAL in dir (fsync never, as the benchmark runs
// drevald) and replays it into a fresh view.
func openStream(tr *tracer, dir string) (*stream, error) {
	s := &stream{}
	s.builder = core.NewViewBuilderKeyed[flatCtx, string](countingKey(&s.keyCalls))
	j, err := newJournal()
	if err != nil {
		return nil, err
	}
	s.journal = j
	tr.begin("setup")
	defer tr.end()
	tr.span("walog.replay", func() {
		s.wal, _, err = walog.Open(walog.Options{Dir: dir, Fsync: walog.FsyncNever})
		if err != nil {
			return
		}
		err = s.wal.ReadAll(func(seq uint64, payload []byte) error {
			flat, err := traceio.DecodeBatch(payload)
			if err != nil {
				return fmt.Errorf("frame %d: %w", seq, err)
			}
			trace := traceio.ToCore(traceio.FlatTrace{Records: flat})
			for _, rec := range trace {
				if err := s.builder.Append(rec); err != nil {
					return fmt.Errorf("frame %d: %w", seq, err)
				}
			}
			s.records = append(s.records, trace...)
			return nil
		})
	})
	if err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	return s, nil
}

func (s *stream) close() error { return s.wal.Close() }

// register is the first streamed read of a policy: parse it over every
// record, fit the frozen reward model, fold the whole view once.
func (s *stream) register(spec string, clip float64) error {
	parsed, err := traceio.ParsePolicy(spec, s.records)
	if err != nil {
		return err
	}
	snap := s.builder.Snapshot()
	model := core.FitTableView(snap)
	s.eval = core.NewStreamEval[flatCtx, string](countingPolicy{p: parsed, calls: &s.polCalls}, model, core.StreamOptions{Clip: clip})
	if err := s.eval.Apply(snap, 0); err != nil {
		return err
	}
	s.fingerprint = fmt.Sprintf("%s|clip=%s@%d", spec, strconv.FormatFloat(clip, 'g', -1, 64), snap.Len())
	s.modelEpoch = snap.Len()
	return nil
}

// ingest answers one /ingest body: decode, validate, append to the WAL,
// fold into the view and the registered aggregates, ack.
func (s *stream) ingest(tr *tracer, id string, body []byte, sync bool) ([]byte, error) {
	var (
		req   ingestRequest
		trace core.Trace[flatCtx, string]
		err   error
	)
	tr.spanAllocs("drevald.decode", "drevald.decode_allocs", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if len(req.Records) == 0 {
		return nil, errors.New("empty batch")
	}
	tr.span("core.validate", func() { err = validateFinite(req.Records) })
	if err != nil {
		return nil, err
	}
	tr.span("traceio.to_core", func() { trace = traceio.ToCore(traceio.FlatTrace{Records: req.Records}) })
	tr.span("core.validate", func() { err = trace.Validate() })
	if err != nil {
		return nil, err
	}
	var payload []byte
	tr.span("traceio.encode_batch", func() { payload = traceio.EncodeBatch(nil, req.Records) })
	tr.count("walog.append_bytes", float64(len(payload)))
	var res walog.AppendResult
	tr.span("walog.append", func() { res, err = s.wal.Append(payload) })
	if err != nil {
		return nil, err
	}
	if sync {
		tr.span("walog.sync", func() { err = s.wal.Sync() })
		if err != nil {
			return nil, err
		}
	}
	keys0, pol0 := s.keyCalls.Load(), s.polCalls.Load()
	from := s.builder.Len()
	tr.span("core.view_append", func() {
		for _, rec := range trace {
			if err = s.builder.Append(rec); err != nil {
				return
			}
		}
		s.records = append(s.records, trace...)
	})
	if err != nil {
		return nil, err
	}
	var snap *core.TraceView[flatCtx, string]
	tr.span("core.stream_apply", func() {
		snap = s.builder.Snapshot()
		if s.eval != nil {
			err = s.eval.Apply(snap, from)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.count("traceio.key_calls", float64(s.keyCalls.Load()-keys0))
	tr.count("core.policy_calls", float64(s.polCalls.Load()-pol0))
	tr.count("core.unique_contexts", float64(snap.NumContexts()))
	ack := ingestResponse{Acked: len(trace), Seq: res.Seq, Segment: res.Segment, Durable: res.Synced, Epoch: s.builder.Len()}
	var out []byte
	tr.span("drevald.encode", func() { out, err = encodeJSON(ack) })
	if err != nil {
		return nil, err
	}
	tr.count("drevald.encode_bytes", float64(len(out)))
	recordEvent(tr, s.journal, id, "/ingest", []string{"durable_ingest"}, func(b *wideevent.Builder) {
		b.SetWALAck(ack.Seq, ack.Epoch, ack.Segment, ack.Durable)
	})
	return out, nil
}

// read answers one streamed /evaluate body (empty trace) from the
// registered aggregates.
func (s *stream) read(tr *tracer, id string, body []byte) ([]byte, error) {
	var req evalRequest
	var err error
	tr.spanAllocs("drevald.decode", "drevald.decode_allocs", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if s.eval == nil {
		if err := s.register(req.Policy, req.Options.Clip); err != nil {
			return nil, err
		}
	}
	var est core.StreamEstimates
	tr.span("core.stream_estimates", func() { est, err = s.eval.Estimates() })
	if err != nil {
		return nil, err
	}
	epoch := s.builder.Len()
	diag := est.Diagnostics
	resp := evalResponse{
		DM: toJSON(est.DM), IPS: toJSON(est.IPS), DR: toJSON(est.DR), Diagnostics: diagJSON(diag),
		Stream: &streamMetaJSON{Fingerprint: s.fingerprint, Epoch: epoch, ModelEpoch: s.modelEpoch, StalenessRecords: epoch - s.modelEpoch},
	}
	reasons := resilience.DefaultThresholds().Check(diag.N, diag.ESS, diag.MaxWeight, diag.ZeroSupport)
	if len(reasons) > 0 {
		resp.Degraded = true
		resp.DegradedReasons = reasons
		resp.FallbackEstimator = "snips-stream"
		resp.Fallback = &fallbackJSON{Estimator: resp.FallbackEstimator, Estimate: toJSON(est.SNIPS)}
	}
	var out []byte
	tr.span("drevald.encode", func() { out, err = encodeJSON(resp) })
	if err != nil {
		return nil, err
	}
	tr.count("drevald.encode_bytes", float64(len(out)))
	recordEvent(tr, s.journal, id, "/evaluate", []string{"stream_evaluate"}, func(b *wideevent.Builder) {
		b.SetPolicy(req.Policy)
		b.SetStream(epoch, s.modelEpoch, epoch-s.modelEpoch)
		b.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	})
	return out, nil
}
