package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/traceio"
	"drnet/internal/walog"
	"drnet/internal/wideevent"
)

// Streaming ingestion: with -wal-dir set, drevald accepts record
// batches on POST /ingest, makes them durable in a walog segment log
// BEFORE acking, folds them into an appendable columnar view plus
// per-policy running sufficient statistics, and serves /evaluate and
// /diagnose requests with an EMPTY trace from those aggregates in O(1)
// — with epoch/staleness metadata in every streamed response. On
// restart the WAL is replayed into the same in-memory state; ingest
// and streamed evaluation answer 503 until replay finishes.

// Streaming metrics: ingest volume, durability failures, replay
// progress and the live epoch, so the WAL's health is scrapeable.
var (
	ingestRecordsTotal   = obs.Default.Counter("drevald_ingest_records_total")
	ingestBatchesTotal   = obs.Default.Counter("drevald_ingest_batches_total")
	walAppendErrorsTotal = obs.Default.Counter("drevald_wal_append_errors_total")
	replayRecordsTotal   = obs.Default.Counter("drevald_wal_replay_records_total")
	streamEpochGauge     = obs.Default.Gauge("drevald_stream_epoch")
	streamPoliciesGauge  = obs.Default.Gauge("drevald_stream_policies")
	walBytesGauge        = obs.Default.Gauge("drevald_wal_bytes")
	walSegmentsGauge     = obs.Default.Gauge("drevald_wal_segments")
)

func init() {
	obs.Default.Help("drevald_ingest_records_total", "Records durably ingested and folded into streaming aggregates.")
	obs.Default.Help("drevald_ingest_batches_total", "Ingest batches acked (one WAL frame each).")
	obs.Default.Help("drevald_wal_append_errors_total", "Ingest batches refused because the WAL append or fsync failed.")
	obs.Default.Help("drevald_wal_replay_records_total", "Records recovered from the WAL during startup replay.")
	obs.Default.Help("drevald_stream_epoch", "Records in the streaming view (replayed + ingested).")
	obs.Default.Help("drevald_stream_policies", "Policy fingerprints with live streaming aggregates.")
	obs.Default.Help("drevald_wal_bytes", "Total valid bytes across all WAL segments.")
	obs.Default.Help("drevald_wal_segments", "WAL segment files on disk.")
}

// streamPolicy is one registered (policy, clip) fingerprint: a frozen
// reward model plus the running sufficient statistics that answer
// evaluation queries in O(1). Guarded by streamEngine.mu.
type streamPolicy struct {
	fingerprint string
	spec        string
	policy      core.Policy[traceio.FlatContext, string]
	model       *core.ViewTableModel[traceio.FlatContext, string]
	eval        *core.StreamEval[traceio.FlatContext, string]
	// modelEpoch is the record count the reward model was fit at; the
	// gap to the live epoch is the staleness every response reports.
	modelEpoch int
}

// streamEngine owns the WAL, the appendable view and the per-policy
// aggregates. One mutex serializes ingest, registration and O(1) reads
// so WAL order, fold order and replay order are the same total order —
// the property that makes crash replay bit-exact.
type streamEngine struct {
	srv      *Server
	wal      *walog.Log
	recovery walog.Recovery
	fsync    walog.FsyncPolicy

	replaying  atomic.Bool
	replayed   atomic.Uint64
	replayDone chan struct{} // closed when replay returns

	mu            sync.Mutex
	builder       *core.ViewBuilder[traceio.FlatContext, string] // guarded by mu
	records       core.Trace[traceio.FlatContext, string]        // guarded by mu
	evals         map[string]*streamPolicy                       // guarded by mu
	replayErr     error                                          // guarded by mu
	lastBiasEpoch int                                            // guarded by mu
	biasBusy      atomic.Bool
}

// newStreamEngine opens (and recovers) srv's WAL. Call replay next —
// until it finishes, ingest and streamed evaluation answer 503.
func newStreamEngine(srv *Server) (*streamEngine, error) {
	cfg := srv.cfg
	fsync, err := walog.ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l, rec, err := walog.Open(walog.Options{
		Dir:           cfg.WALDir,
		SegmentBytes:  cfg.SegmentBytes,
		Fsync:         fsync,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	e := &streamEngine{
		srv:        srv,
		wal:        l,
		recovery:   rec,
		fsync:      fsync,
		builder:    core.NewViewBuilderKeyed[traceio.FlatContext, string](traceio.FlatContext.Key),
		evals:      make(map[string]*streamPolicy),
		replayDone: make(chan struct{}),
	}
	e.replaying.Store(true)
	return e, nil
}

// replay folds every WAL frame back into the in-memory view, in frame
// order — the same order ingest applied them, so the rebuilt state is
// bit-identical to the pre-crash state (core's replay equivalence
// test). Runs once, before any ingest is admitted.
func (e *streamEngine) replay() {
	defer close(e.replayDone)
	defer e.replaying.Store(false)
	err := e.wal.ReadAll(func(seq uint64, payload []byte) error {
		flat, err := traceio.DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		trace := traceio.ToCore(traceio.FlatTrace{Records: flat})
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, rec := range trace {
			if err := e.builder.Append(rec); err != nil {
				return fmt.Errorf("frame %d: %w", seq, err)
			}
		}
		e.records = append(e.records, trace...)
		e.replayed.Add(uint64(len(trace)))
		replayRecordsTotal.Add(uint64(len(trace)))
		return nil
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replayErr = err
	streamEpochGauge.Set(float64(e.builder.Len()))
	walBytesGauge.Set(float64(e.wal.Bytes()))
	walSegmentsGauge.Set(float64(e.wal.Segments()))
	if err != nil {
		e.srv.log.Error("wal replay failed", "err", err)
		return
	}
	e.srv.log.Info("wal replay complete",
		"records", e.builder.Len(),
		"frames", e.wal.Seq(),
		"segments", e.wal.Segments(),
		"truncatedBytes", e.recovery.TruncatedBytes,
	)
}

// unavailable answers 503 (with Retry-After) and returns true when the
// engine cannot serve stream traffic yet (replay in progress) or ever
// (replay failed).
func (e *streamEngine) unavailable(w http.ResponseWriter) bool {
	body := streamUnavailableJSON{Error: "wal replay in progress, retry shortly", Replaying: true}
	if !e.replaying.Load() {
		e.mu.Lock()
		err := e.replayErr
		e.mu.Unlock()
		if err == nil {
			return false
		}
		body = streamUnavailableJSON{Error: "wal replay failed: " + err.Error()}
	}
	w.Header().Set("Retry-After", "1")
	writeJSONStatus(w, http.StatusServiceUnavailable, body)
	return true
}

// streamUnavailableJSON is the 503 body of streaming endpoints.
type streamUnavailableJSON struct {
	Error     string `json:"error"`
	Replaying bool   `json:"replaying,omitempty"`
}

// errNotDurable wraps WAL failures so the handler can answer 503 (the
// data is not safe; the client must retry) instead of 422.
var errNotDurable = errors.New("drevald: batch not durable")

// ingest makes one validated batch durable and folds it into the view
// and every registered aggregate, all under one lock hold so the WAL
// order equals the fold order. The records MUST already have passed
// Trace.Validate — ViewBuilder.Append applies the identical checks, so
// post-WAL validation failures are impossible and the WAL never holds
// a batch replay would reject.
func (e *streamEngine) ingest(flat []traceio.FlatRecord, trace core.Trace[traceio.FlatContext, string]) (ingestResponse, error) {
	payload := traceio.EncodeBatch(nil, flat)
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := e.wal.Append(payload)
	if err != nil {
		walAppendErrorsTotal.Inc()
		return ingestResponse{}, fmt.Errorf("%w: %v", errNotDurable, err)
	}
	from := e.builder.Len()
	for _, rec := range trace {
		if err := e.builder.Append(rec); err != nil {
			// Unreachable after Trace.Validate; if it ever fires the
			// in-memory state no longer matches the WAL, so fail loudly.
			return ingestResponse{}, fmt.Errorf("drevald: durable batch rejected by view (state diverged, restart to replay): %v", err)
		}
	}
	e.records = append(e.records, trace...)
	snap := e.builder.Snapshot()
	for _, sp := range e.evals {
		if err := sp.eval.Apply(snap, from); err != nil {
			return ingestResponse{}, fmt.Errorf("drevald: folding batch into %s: %v", sp.fingerprint, err)
		}
	}
	epoch := e.builder.Len()
	ingestBatchesTotal.Inc()
	ingestRecordsTotal.Add(uint64(len(trace)))
	streamEpochGauge.Set(float64(epoch))
	walBytesGauge.Set(float64(e.wal.Bytes()))
	walSegmentsGauge.Set(float64(e.wal.Segments()))
	e.maybeRefreshBiasLocked(snap, epoch)
	return ingestResponse{Acked: len(trace), Seq: res.Seq, Segment: res.Segment, Durable: res.Synced, Epoch: epoch}, nil
}

// maybeRefreshBiasLocked reruns the bias observatory over the streamed
// view every -bias-refresh ingested records, publishing to the same
// surface the request path uses — live bias windows over the stream
// instead of per-request traces. The O(n) compute runs off the ingest
// path; at most one refresh is in flight.
func (e *streamEngine) maybeRefreshBiasLocked(snap *core.TraceView[traceio.FlatContext, string], epoch int) {
	cfg := e.srv.cfg
	if cfg.BiasRefresh <= 0 || cfg.BiasWindows <= 0 || len(e.evals) == 0 {
		return
	}
	if epoch-e.lastBiasEpoch < cfg.BiasRefresh {
		return
	}
	sp := e.oldestPolicyLocked()
	if !e.biasBusy.CompareAndSwap(false, true) {
		return // previous refresh still running; next batch retries
	}
	e.lastBiasEpoch = epoch
	go func() {
		defer recoverGoroutine(e.srv.log, "bias-refresh")
		defer e.biasBusy.Store(false)
		report, err := biasobs.Compute(snap, sp.policy, e.srv.biasConfig())
		if err != nil {
			e.srv.log.Warn("stream bias refresh failed", "epoch", epoch, "err", err)
			return
		}
		e.srv.publishBias(report, fmt.Sprintf("ingest@epoch=%d", epoch))
	}()
}

// oldestPolicyLocked picks the registered policy with the smallest
// model epoch (ties broken by fingerprint) — a deterministic choice of
// whose lens the streamed observatory report uses.
func (e *streamEngine) oldestPolicyLocked() *streamPolicy {
	var best *streamPolicy
	for _, sp := range e.evals {
		if best == nil || sp.modelEpoch < best.modelEpoch ||
			(sp.modelEpoch == best.modelEpoch && sp.fingerprint < best.fingerprint) {
			best = sp
		}
	}
	return best
}

// streamResult is one O(1) read of a fingerprint's aggregates.
type streamResult struct {
	est  core.StreamEstimates
	meta streamMetaJSON
}

// evaluate serves one streamed query: it registers the (policy, clip)
// fingerprint on first use (one O(n) catch-up fold, holding the lock
// so no batch is missed or double-counted) and afterwards answers from
// running aggregates in O(1). refresh forces a re-registration —
// refitting the reward model at the current epoch, which resets
// staleness to zero.
func (e *streamEngine) evaluate(spec string, clip float64, refresh bool) (streamResult, error) {
	key := spec + "|clip=" + strconv.FormatFloat(clip, 'g', -1, 64)
	e.mu.Lock()
	defer e.mu.Unlock()
	sp, ok := e.evals[key]
	if !ok || refresh {
		if e.builder.Len() == 0 {
			return streamResult{}, errors.New("stream is empty: ingest records before evaluating without a trace")
		}
		policy, err := traceio.ParsePolicy(spec, e.records)
		if err != nil {
			return streamResult{}, err
		}
		snap := e.builder.Snapshot()
		model := core.FitTableView(snap)
		eval := core.NewStreamEval(policy, model, core.StreamOptions{Clip: clip})
		if err := eval.Apply(snap, 0); err != nil {
			return streamResult{}, err
		}
		sp = &streamPolicy{
			fingerprint: fmt.Sprintf("%s@%d", key, snap.Len()),
			spec:        spec,
			policy:      policy,
			model:       model,
			eval:        eval,
			modelEpoch:  snap.Len(),
		}
		e.evals[key] = sp
		streamPoliciesGauge.Set(float64(len(e.evals)))
		e.srv.log.Info("stream policy registered", "fingerprint", sp.fingerprint, "records", snap.Len())
	}
	est, err := sp.eval.Estimates()
	if err != nil {
		return streamResult{}, err
	}
	epoch := e.builder.Len()
	return streamResult{est: est, meta: streamMetaJSON{
		Fingerprint:      sp.fingerprint,
		Epoch:            epoch,
		ModelEpoch:       sp.modelEpoch,
		StalenessRecords: epoch - sp.modelEpoch,
	}}, nil
}

// walJSON is the /healthz wal block.
type walJSON struct {
	Enabled         bool   `json:"enabled"`
	Replaying       bool   `json:"replaying"`
	ReplayError     string `json:"replayError,omitempty"`
	Epoch           int    `json:"epoch"`
	ReplayedRecords uint64 `json:"replayedRecords"`
	Frames          uint64 `json:"frames"`
	Segments        int    `json:"segments"`
	Bytes           int64  `json:"bytes"`
	TruncatedBytes  int64  `json:"truncatedBytes"`
	Fsync           string `json:"fsync"`
	Policies        int    `json:"policies"`
}

// status snapshots the engine for /healthz.
func (e *streamEngine) status() *walJSON {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := &walJSON{
		Enabled:         true,
		Replaying:       e.replaying.Load(),
		Epoch:           e.builder.Len(),
		ReplayedRecords: e.replayed.Load(),
		Frames:          e.wal.Seq(),
		Segments:        e.wal.Segments(),
		Bytes:           e.wal.Bytes(),
		TruncatedBytes:  e.recovery.TruncatedBytes,
		Fsync:           e.fsync.String(),
		Policies:        len(e.evals),
	}
	if e.replayErr != nil {
		out.ReplayError = e.replayErr.Error()
	}
	return out
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	Records []traceio.FlatRecord `json:"records"`
}

// ingestResponse is the POST /ingest ack. Durable is true when the
// batch was fsynced before the ack (-fsync always); under interval or
// never policies it reports that durability is deferred.
type ingestResponse struct {
	Acked   int    `json:"acked"`
	Seq     uint64 `json:"seq"`
	Segment string `json:"segment"`
	Durable bool   `json:"durable"`
	Epoch   int    `json:"epoch"`
}

// handleIngest accepts one record batch, makes it durable, folds it
// into the streaming aggregates and acks with the new epoch. Ordered
// error surface: 404 streaming disabled, 503 replaying/not-durable,
// 413 oversized body, 400 malformed, 422 invalid records, 429 via the
// ingest limiter in the middleware.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	eng := s.stream
	if eng == nil {
		httpError(w, http.StatusNotFound, "streaming ingestion disabled (-wal-dir not set)")
		return
	}
	if eng.unavailable(w) {
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.IngestMaxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, bodyErrorStatus(err), "invalid request body: "+err.Error())
		return
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := validateFiniteRecords(req.Records); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: req.Records})
	if err := trace.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	root := obs.SpanFromContext(r.Context())
	ack, err := timed(r.Context(), root, "durable_ingest", func() (ingestResponse, error) {
		return eng.ingest(req.Records, trace)
	})
	if err != nil {
		if errors.Is(err, errNotDurable) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("ingest", "id", requestID(r), "acked", ack.Acked, "seq", ack.Seq, "epoch", ack.Epoch)
	}
	wideevent.FromContext(r.Context()).SetWALAck(ack.Seq, ack.Epoch, ack.Segment, ack.Durable)
	writeJSON(w, ack)
}

// streamMetaJSON is the metadata block every streamed response
// carries: which aggregate answered, how many records it covers and
// how stale its frozen reward model is.
type streamMetaJSON struct {
	Fingerprint string `json:"fingerprint"`
	Epoch       int    `json:"epoch"`
	ModelEpoch  int    `json:"modelEpoch"`
	// StalenessRecords is epoch − modelEpoch: how many records arrived
	// since the DM/DR reward model was frozen. Above -max-model-age the
	// response is degraded with a stale_aggregates reason.
	StalenessRecords int `json:"stalenessRecords"`
}

// metaJSON is the response's stream block; nil (omitted) for a batch
// request.
func (sr *streamResult) metaJSON() *streamMetaJSON {
	if sr == nil {
		return nil
	}
	return &sr.meta
}
