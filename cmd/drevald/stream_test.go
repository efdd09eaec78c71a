package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drnet/internal/benchkit"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
	"drnet/internal/walog"
)

// newStreamServer is newTestServer with streaming enabled over a fresh
// WAL dir; edit runs afterwards and may override any field.
func newStreamServer(t *testing.T, edit func(*Config)) (*Server, *httptest.Server) {
	dir := t.TempDir()
	return newTestServer(t, func(c *Config) {
		c.WALDir = dir
		if edit != nil {
			edit(c)
		}
	})
}

// openStreamServer builds a streaming Server over dir that the caller
// closes, for tests that reopen the same WAL.
func openStreamServer(t *testing.T, dir string, segmentBytes int64) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LogLevel = "error"
	cfg.WALDir, cfg.SegmentBytes = dir, segmentBytes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-s.stream.replayDone
	return s
}

// ingestBatch POSTs one batch and decodes the ack.
func ingestBatch(t *testing.T, srv *httptest.Server, records []traceio.FlatRecord) ingestResponse {
	t.Helper()
	resp := post(t, srv, "/ingest", ingestRequest{Records: records})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, buf.String())
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// streamEvaluate POSTs an empty-trace /evaluate (the aggregate-served
// path) and decodes the response.
func streamEvaluate(t *testing.T, srv *httptest.Server, policy string, opts evalOptions) evalResponse {
	t.Helper()
	resp := post(t, srv, "/evaluate", evalRequest{Policy: policy, Options: opts})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("stream evaluate status %d: %s", resp.StatusCode, buf.String())
	}
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamEvaluateMatchesBatch is the end-to-end equivalence check:
// records ingested in batches and evaluated from aggregates must
// produce the same estimates as the same records POSTed inline —
// bit-identical Values for DM/IPS/DR (the core suite's guarantee,
// carried through the full HTTP surface).
func TestStreamEvaluateMatchesBatch(t *testing.T) {
	t.Parallel()
	_, srv := newStreamServer(t, nil)

	records := testTraceJSON(t, false)
	var epoch int
	for i := 0; i < len(records); i += 100 {
		ack := ingestBatch(t, srv, records[i:i+100])
		if ack.Acked != 100 || !ack.Durable {
			t.Fatalf("ack %+v, want 100 durable records", ack)
		}
		epoch = ack.Epoch
	}
	if epoch != len(records) {
		t.Fatalf("final epoch %d, want %d", epoch, len(records))
	}

	for _, selfNorm := range []bool{false, true} {
		opts := evalOptions{Clip: 5, SelfNormalize: selfNorm}
		streamed := streamEvaluate(t, srv, "constant:c", opts)
		resp := post(t, srv, "/evaluate", evalRequest{Trace: records, Policy: "constant:c", Options: opts})
		var batch evalResponse
		if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		if streamed.Stream == nil {
			t.Fatal("streamed response missing the stream metadata block")
		}
		if streamed.Stream.Epoch != len(records) || streamed.Stream.StalenessRecords != 0 {
			t.Fatalf("stream meta %+v, want epoch=%d staleness=0", streamed.Stream, len(records))
		}
		if batch.Stream != nil {
			t.Fatal("batch response unexpectedly carries stream metadata")
		}
		// The model registers at the full epoch, so DM/IPS Values (and
		// plain DR) must be bit-identical to the batch fit on the same
		// records; SN-DR matches within the documented tolerance.
		if streamed.DM.Value != batch.DM.Value {
			t.Fatalf("selfNorm=%v: DM %v != %v", selfNorm, streamed.DM.Value, batch.DM.Value)
		}
		if streamed.IPS.Value != batch.IPS.Value || streamed.IPS.ESS != batch.IPS.ESS {
			t.Fatalf("selfNorm=%v: IPS %+v != %+v", selfNorm, streamed.IPS, batch.IPS)
		}
		drTol := 0.0
		if selfNorm {
			drTol = 1e-9 * (1 + abs(batch.DR.Value))
		}
		if d := abs(streamed.DR.Value - batch.DR.Value); d > drTol {
			t.Fatalf("selfNorm=%v: DR %v != %v (|Δ|=%g)", selfNorm, streamed.DR.Value, batch.DR.Value, d)
		}
		if streamed.Diagnostics != batch.Diagnostics {
			t.Fatalf("selfNorm=%v: diagnostics %+v != %+v", selfNorm, streamed.Diagnostics, batch.Diagnostics)
		}
	}

	// /diagnose from aggregates carries the same diagnostics + metadata.
	resp := post(t, srv, "/diagnose", evalRequest{Policy: "constant:c", Options: evalOptions{Clip: 5}})
	var diag diagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&diag); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if diag.N != len(records) || diag.Stream == nil || diag.Stream.Epoch != len(records) {
		t.Fatalf("stream diagnose %+v / %+v", diag.diagnosticsJSON, diag.Stream)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestStreamRestartByteIdentical pins crash-replay equivalence through
// the HTTP surface: close the engine, reopen the same WAL dir, replay,
// and the streamed /evaluate body must be byte-identical.
func TestStreamRestartByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	records := testTraceJSON(t, false)

	read := func(s *Server) []byte {
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "best-observed", Options: evalOptions{Clip: 10}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var want []byte
	func() {
		s := openStreamServer(t, dir, 4096)
		defer s.Close()
		srv := httptest.NewServer(s.Handler())
		for i := 0; i < len(records); i += 50 {
			ingestBatch(t, srv, records[i:i+50])
		}
		srv.Close()
		want = read(s)
	}()

	s := openStreamServer(t, dir, 4096)
	defer s.Close()
	if got := s.stream.builder.Len(); got != len(records) {
		t.Fatalf("replayed %d records, want %d", got, len(records))
	}
	if s.stream.wal.Segments() < 2 {
		t.Fatalf("expected multiple segments at SegmentBytes=4096, got %d", s.stream.wal.Segments())
	}
	got := read(s)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed response differs after restart:\n%s\nvs\n%s", got, want)
	}
}

// TestStreamStalenessDegrades: with -max-model-age set, a fingerprint
// registered early degrades once enough records arrive, carrying the
// stale_aggregates reason and an O(1) SNIPS fallback; refreshModel
// refits and clears it.
func TestStreamStalenessDegrades(t *testing.T) {
	t.Parallel()
	_, srv := newStreamServer(t, func(c *Config) {
		noDegrade(c) // isolate the staleness reason
		c.MaxModelAge = 100
	})

	records := testTraceJSON(t, false)
	ingestBatch(t, srv, records[:100])
	fresh := streamEvaluate(t, srv, "constant:a", evalOptions{})
	if fresh.Degraded {
		t.Fatalf("fresh registration degraded: %+v", fresh.DegradedReasons)
	}
	if fresh.Stream.ModelEpoch != 100 {
		t.Fatalf("modelEpoch %d, want 100", fresh.Stream.ModelEpoch)
	}

	ingestBatch(t, srv, records[100:250])
	ingestBatch(t, srv, records[250:400])
	stale := streamEvaluate(t, srv, "constant:a", evalOptions{})
	if stale.Stream.StalenessRecords != 300 || stale.Stream.Epoch != 400 {
		t.Fatalf("stream meta %+v, want staleness=300 epoch=400", stale.Stream)
	}
	if !stale.Degraded || len(stale.DegradedReasons) != 1 ||
		stale.DegradedReasons[0].Code != resilience.ReasonStaleAggs {
		t.Fatalf("want stale_aggregates degradation, got %+v", stale.DegradedReasons)
	}
	if stale.Fallback == nil || stale.Fallback.Estimator != "snips-stream" || stale.Fallback.Estimate.N != 400 {
		t.Fatalf("fallback %+v, want snips-stream over 400 records", stale.Fallback)
	}
	// The stale aggregates still cover every record.
	if stale.DM.N != 400 || stale.IPS.N != 400 {
		t.Fatalf("stale estimates dropped records: DM.N=%d IPS.N=%d", stale.DM.N, stale.IPS.N)
	}

	refreshed := streamEvaluate(t, srv, "constant:a", evalOptions{RefreshModel: true})
	if refreshed.Degraded || refreshed.Stream.StalenessRecords != 0 || refreshed.Stream.ModelEpoch != 400 {
		t.Fatalf("refresh did not clear staleness: %+v (degraded=%v)", refreshed.Stream, refreshed.Degraded)
	}
}

// TestIngestErrorSurface walks the /ingest status ladder: 404 disabled,
// 400 malformed/empty, 413 oversized, 422 invalid records, 429 shed
// with Retry-After, 503 while replaying.
func TestIngestErrorSurface(t *testing.T) {
	t.Parallel()
	records := testTraceJSON(t, false)

	t.Run("disabled 404", func(t *testing.T) {
		_, srv := newTestServer(t, nil)
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	s, srv := newStreamServer(t, nil)

	t.Run("empty batch 400", func(t *testing.T) {
		resp := post(t, srv, "/ingest", ingestRequest{})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("malformed 400", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("oversized 413", func(t *testing.T) {
		_, srv := newStreamServer(t, func(c *Config) { c.IngestMaxBytes = 64 })
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, buf.String())
		}
	})

	t.Run("invalid record 422", func(t *testing.T) {
		bad := []traceio.FlatRecord{{Decision: "a", Reward: 1, Propensity: 0}}
		resp := post(t, srv, "/ingest", ingestRequest{Records: bad})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
		if !strings.Contains(buf.String(), "record 0") {
			t.Fatalf("error not record-addressed: %s", buf.String())
		}
		// Nothing invalid reached the WAL or the view.
		if s.stream.wal.Seq() != 0 || s.stream.builder.Len() != 0 {
			t.Fatalf("invalid batch left state: seq=%d len=%d", s.stream.wal.Seq(), s.stream.builder.Len())
		}
	})

	t.Run("shed 429 with Retry-After", func(t *testing.T) {
		s, srv := newStreamServer(t, func(c *Config) { c.IngestMaxConcurrent, c.IngestMaxQueue = 1, 0 })
		release, _, err := s.ingestLimit.Acquire(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	})

	t.Run("replaying 503", func(t *testing.T) {
		s.stream.replaying.Store(true)
		defer s.stream.replaying.Store(false)
		for _, path := range []string{"/ingest", "/evaluate", "/diagnose"} {
			body := any(ingestRequest{Records: records[:10]})
			if path != "/ingest" {
				body = evalRequest{Policy: "constant:a"}
			}
			resp := post(t, srv, path, body)
			var out streamUnavailableJSON
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
			}
			if err != nil || !out.Replaying {
				t.Fatalf("%s: body %+v, want replaying:true", path, out)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: 503 without Retry-After", path)
			}
		}
	})

	t.Run("empty stream evaluate 422", func(t *testing.T) {
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "constant:a"})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, buf.String())
		}
		if !strings.Contains(buf.String(), "stream is empty") {
			t.Fatalf("unhelpful error: %s", buf.String())
		}
	})

	t.Run("bootstrap rejected 400", func(t *testing.T) {
		ingestBatch(t, srv, records[:50])
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "constant:a", Options: evalOptions{Bootstrap: 10}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestChaosIngestWALFault: an injected fsync failure refuses the ack
// with 503 (the batch is NOT durable and NOT folded), the error counter
// ticks, and after the fault clears the same batch ingests cleanly —
// the retry contract a durable queue owes its producers.
func TestChaosIngestWALFault(t *testing.T) {
	s, srv := newStreamServer(t, nil)
	records := testTraceJSON(t, false)

	errsBefore := walAppendErrorsTotal.Value()
	resilience.Activate(resilience.NewFaultPlan(23).
		Add(resilience.PointWALSync, resilience.FaultSpec{ErrProb: 1}))
	resp := post(t, srv, "/ingest", ingestRequest{Records: records[:50]})
	resilience.Deactivate()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, buf.String())
	}
	if walAppendErrorsTotal.Value() != errsBefore+1 {
		t.Fatal("wal append error counter did not tick")
	}
	if s.stream.builder.Len() != 0 {
		t.Fatalf("un-durable batch folded into the view: %d records", s.stream.builder.Len())
	}

	// Retry after the fault clears: clean ack, state consistent.
	ack := ingestBatch(t, srv, records[:50])
	if ack.Acked != 50 || ack.Epoch != 50 || ack.Seq != 0 {
		t.Fatalf("retry ack %+v, want 50 records at seq 0", ack)
	}
}

// TestStreamHealthzWALBlock: /healthz surfaces the WAL state (epoch,
// fsync policy, replay progress) once streaming is enabled.
func TestStreamHealthzWALBlock(t *testing.T) {
	t.Parallel()
	_, srv := newStreamServer(t, nil)
	ingestBatch(t, srv, testTraceJSON(t, false)[:100])

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.WAL == nil {
		t.Fatal("healthz missing wal block")
	}
	if !out.WAL.Enabled || out.WAL.Replaying || out.WAL.Epoch != 100 ||
		out.WAL.Frames != 1 || out.WAL.Fsync != "always" {
		t.Fatalf("wal block %+v", out.WAL)
	}
}

// TestStreamBiasRefresh: with BiasRefresh set, ingest republishes the
// observatory report over the streamed view, stamped with the epoch.
func TestStreamBiasRefresh(t *testing.T) {
	t.Parallel()
	s, srv := newStreamServer(t, func(c *Config) { c.BiasRefresh = 100 })
	records := testTraceJSON(t, false)

	ingestBatch(t, srv, records[:150])
	streamEvaluate(t, srv, "constant:a", evalOptions{}) // register a policy
	s.lastBias.Store(nil)
	ingestBatch(t, srv, records[150:300])

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.lastBias.Load(); st != nil {
			if !strings.HasPrefix(st.requestID, "ingest@epoch=") {
				t.Fatalf("bias report stamped %q, want ingest@epoch=...", st.requestID)
			}
			if st.report.Grade == "" {
				t.Fatal("empty bias grade")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bias refresh never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamSegmentRotationManifest: small segments force rotation
// mid-stream; the manifest matches the scan on reopen and recovery
// reports every frame.
func TestStreamSegmentRotationManifest(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	func() {
		s := openStreamServer(t, dir, 2048)
		defer s.Close()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		records := testTraceJSON(t, false)
		for i := 0; i < 300; i += 20 {
			ingestBatch(t, srv, records[i:i+20])
		}
		if s.stream.wal.Segments() < 3 {
			t.Fatalf("no rotation at 2 KiB segments: %d segment(s)", s.stream.wal.Segments())
		}
	}()

	l, rec, err := walog.Open(walog.Options{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !rec.ManifestOK {
		t.Fatal("manifest disagreed with the scan after a clean shutdown")
	}
	if rec.Frames != 15 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want 15 clean frames", rec)
	}
}

// TestIngestLegEvalFlatness runs benchkit's ingest leg against the
// real engine and checks the O(1) contract end to end: streamed
// /evaluate latency at a 10x-larger epoch stays within a small factor
// of the first checkpoint (an O(n) evaluator would scale ~10x). The
// bound is deliberately loose — it is a complexity tripwire, not a
// latency SLO.
func TestIngestLegEvalFlatness(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	_, srv := newStreamServer(t, func(c *Config) { c.Fsync = "never" })

	res, err := benchkit.RunIngest(benchkit.IngestConfig{
		URL: srv.URL, Records: 5000, BatchSize: 250, EvalSamples: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Records != 5000 {
		t.Fatalf("ingest leg: %+v", res)
	}
	first, last := res.Checkpoints[0], res.Checkpoints[len(res.Checkpoints)-1]
	if last.Epoch != 10*first.Epoch {
		t.Fatalf("checkpoints do not span 10x: %d -> %d", first.Epoch, last.Epoch)
	}
	if res.EvalLatencyRatio > 8 {
		t.Fatalf("streamed /evaluate latency grew %.1fx over a 10x stream (p50 %.3fms -> %.3fms): evaluation is no longer O(1)",
			res.EvalLatencyRatio, first.EvalP50Ms, last.EvalP50Ms)
	}
	t.Logf("10x growth: eval p50 %.3fms -> %.3fms (%.2fx), ingest %.0f records/s",
		first.EvalP50Ms, last.EvalP50Ms, res.EvalLatencyRatio, res.RecordsPerSec)
}
