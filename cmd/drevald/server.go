package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/wideevent"
)

// Server is one drevald instance: the configuration plus everything
// built from it and the state its requests leave behind. Handlers are
// its methods; build one with New.
type Server struct {
	cfg   Config
	log   *obs.Logger
	start time.Time

	// evalLimit admits /evaluate and /diagnose, ingestLimit /ingest, so
	// writers and evaluators cannot starve each other.
	evalLimit   *resilience.Limiter
	ingestLimit *resilience.Limiter
	thresholds  resilience.Thresholds
	// maxBody bounds /evaluate and /diagnose bodies (maxBodyBytes; a
	// field so tests can reach the 413 path with a small payload).
	maxBody int64

	traces  *obs.TraceRecorder
	journal *wideevent.Journal
	slo     *slo.Engine
	stream  *streamEngine // nil when streaming is disabled
	closers []func() error

	// pages holds the objectives burning at page severity, so the
	// -degrade-on-slo-page escalation knows when the last one clears.
	pageMu sync.Mutex
	pages  map[string]resilience.Reason // guarded by pageMu

	lastBias  atomic.Pointer[biasState]
	lastTrace atomic.Pointer[traceSummary]

	// synced holds the journal and recorder readings last copied into
	// the process-wide loss counters (see syncMetrics).
	synced struct{ emitted, sampledOut, eventsDropped, spansDropped atomic.Uint64 }
}

// maxBodyBytes bounds /evaluate and /diagnose request bodies (64 MiB).
const maxBodyBytes int64 = 64 << 20

// New validates cfg and builds a Server from it: limiters, journal,
// SLO engine, span recorder, the -events-out/-trace-out files and,
// with WALDir set, the streaming engine, whose WAL replay starts in
// the background (streaming endpoints answer 503 until it finishes).
// Workers sets the process-wide worker-pool width. Close releases what
// New opened.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil) }

// newServer is New with the journal and SLO engine on the given clock
// (nil = wall clock), so tests get byte-deterministic events.
func newServer(cfg Config, now func() time.Time) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	level, _ := obs.ParseLevel(cfg.LogLevel) // checked by Validate
	s := &Server{
		cfg:         cfg,
		log:         obs.NewLogger(os.Stderr, level),
		start:       time.Now(),
		evalLimit:   resilience.NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
		ingestLimit: resilience.NewLimiter(cfg.IngestMaxConcurrent, cfg.IngestMaxQueue),
		thresholds: resilience.Thresholds{
			ESSRatioFloor:    cfg.ESSRatioFloor,
			MaxWeightCeiling: cfg.MaxWeightCeiling,
			ZeroSupportCap:   cfg.ZeroSupportCap,
		},
		maxBody: maxBodyBytes,
		traces:  obs.NewTraceRecorder(cfg.TraceBuffer),
		journal: wideevent.NewJournal(wideevent.Options{
			Capacity:   cfg.EventsBuffer,
			SampleRate: cfg.EventsSample,
			SlowMs:     cfg.EventsSlowMs,
			Seed:       cfg.EventsSeed,
			Now:        now,
		}),
		pages: map[string]resilience.Reason{},
	}
	sloCfg := slo.DefaultConfig()
	if cfg.SLOConfig != "" {
		doc, err := os.ReadFile(cfg.SLOConfig)
		if err == nil {
			sloCfg, err = slo.Parse(doc)
		}
		if err != nil {
			return nil, fmt.Errorf("-slo-config: %v", err)
		}
	}
	eng, err := slo.New(sloCfg, now)
	if err != nil {
		return nil, fmt.Errorf("-slo-config: %v", err)
	}
	eng.SetHook(s.sloTransition)
	s.slo = eng
	s.journal.Observe(s.slo.Observe)
	if err := s.exportJSONL("-events-out", cfg.EventsOut, s.journal.SetSink); err != nil {
		return nil, err
	}
	if err := s.exportJSONL("-trace-out", cfg.TraceOut, s.traces.SetSink); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	parallel.SetDefaultWorkers(cfg.Workers)
	if cfg.WALDir != "" {
		if s.stream, err = newStreamEngine(s); err != nil {
			return nil, errors.Join(err, s.Close())
		}
		rec := s.stream.recovery
		s.log.Info("wal opened", "dir", cfg.WALDir, "fsync", s.stream.fsync.String(),
			"segments", rec.Segments, "frames", rec.Frames,
			"truncatedBytes", rec.TruncatedBytes, "manifestOK", rec.ManifestOK)
		go func() {
			defer recoverGoroutine(s.log, "wal-replay")
			s.stream.replay()
		}()
	}
	return s, nil
}

// exportJSONL appends set's JSONL lines to path (no-op when empty) and
// registers the flush-then-close with Close.
func (s *Server) exportJSONL(flagName, path string, set func(func(line []byte))) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: %v", flagName, err)
	}
	set(func(line []byte) { _, _ = f.Write(line) })
	s.closers = append(s.closers, func() error {
		set(nil) // flush the drainer before the file closes
		return f.Close()
	})
	return nil
}

// Close flushes the JSONL exports and closes their files and the WAL.
func (s *Server) Close() error {
	var errs []error
	for _, c := range s.closers {
		errs = append(errs, c())
	}
	s.closers = nil
	if s.stream != nil {
		<-s.stream.replayDone // replay reads the WAL being closed
		errs = append(errs, s.stream.wal.Close())
	}
	return errors.Join(errs...)
}

// Serve serves the service routes on ln until stop delivers a signal
// (SIGINT or SIGTERM in production), then shuts down gracefully: the
// listener closes immediately and in-flight requests get up to
// DrainTimeout to finish.
func (s *Server) Serve(ln net.Listener, stop <-chan os.Signal) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		defer recoverGoroutine(s.log, "serve")
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	select {
	case <-stop:
	case err := <-serveErr:
		return err
	}
	// The drain deadline is anchored to process shutdown, not to any
	// request, so Background is the right parent here.
	//lint:allow ctxdiscipline shutdown drain has no request context to inherit
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// Handler wires the service routes, each behind the instrument
// middleware (request IDs, per-route metrics, access logs).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("POST /diagnose", s.instrument("/diagnose", limited(s.evalLimit, "/diagnose", s.handleDiagnose)))
	mux.Handle("POST /evaluate", s.instrument("/evaluate", limited(s.evalLimit, "/evaluate", s.handleEvaluate)))
	mux.Handle("POST /ingest", s.instrument("/ingest", limited(s.ingestLimit, "/ingest", s.handleIngest)))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /debug/vars", s.instrument("/debug/vars", s.handleVars))
	mux.Handle("GET /debug/traces", s.instrument("/debug/traces", s.traces.Handler().ServeHTTP))
	mux.Handle("GET /debug/bias", s.instrument("/debug/bias", s.handleBias))
	mux.Handle("GET /debug/events", s.instrument("/debug/events", s.journal.Handler().ServeHTTP))
	mux.Handle("GET /debug/slo", s.instrument("/debug/slo", s.slo.Handler().ServeHTTP))
	return mux
}

// debugMux builds the opt-in -debug-addr listener's mux: pprof, plus
// the metric and debug endpoints so a scraper pointed at the debug port
// sees everything. Profiling is never exposed on the service port.
func (s *Server) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.Handle("GET /debug/traces", s.traces.Handler())
	mux.HandleFunc("GET /debug/bias", s.handleBias)
	mux.Handle("GET /debug/events", s.journal.Handler())
	mux.Handle("GET /debug/slo", s.slo.Handler())
	return mux
}

// healthJSON is the /healthz response body. The timeout fields surface
// the server's resilience configuration so orchestrators can size their
// own probe budgets (e.g. terminationGracePeriod > drainTimeout).
type healthJSON struct {
	Status                string  `json:"status"`
	UptimeSeconds         float64 `json:"uptimeSeconds"`
	Version               string  `json:"version"`
	DrainTimeoutSeconds   float64 `json:"drainTimeoutSeconds"`
	RequestTimeoutSeconds float64 `json:"requestTimeoutSeconds"`
	// LastTrace describes the most recent trace view the server built
	// (absent until the first /evaluate or /diagnose request), so
	// operators can confirm what drevald actually evaluated. BiasGrade
	// is the most recent bias-observatory verdict, when one exists.
	LastTrace *lastTraceJSON `json:"lastTrace,omitempty"`
	BiasGrade string         `json:"biasGrade,omitempty"`
	// WAL reports the streaming engine's state (epoch, replay progress,
	// segment footprint). Absent when -wal-dir is unset.
	WAL *walJSON `json:"wal,omitempty"`
	// Events is the wide-event journal's counter block (emitted,
	// recorded, sampled out, sink drops), so probes can watch journal
	// health without querying /debug/events.
	Events *wideevent.Stats `json:"events,omitempty"`
	// SLO is the burn-rate rollup grade — the worst objective's alert
	// state ("ok", "warning" or "page") at probe time.
	SLO string `json:"slo,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthJSON{
		Status:                "ok",
		UptimeSeconds:         time.Since(s.start).Seconds(),
		Version:               obs.Version(),
		DrainTimeoutSeconds:   s.cfg.DrainTimeout.Seconds(),
		RequestTimeoutSeconds: s.cfg.RequestTimeout.Seconds(),
	}
	if ts := s.lastTrace.Load(); ts != nil {
		h.LastTrace = &lastTraceJSON{
			Records:          ts.records,
			UniqueContexts:   ts.contexts,
			UniqueDecisions:  ts.decisions,
			ViewBuildSeconds: ts.buildSeconds,
			AgeSeconds:       time.Since(ts.when).Seconds(),
		}
	}
	if st := s.lastBias.Load(); st != nil {
		h.BiasGrade = st.report.Grade
	}
	if s.stream != nil {
		h.WAL = s.stream.status()
	}
	st := s.journal.Stats()
	h.Events = &st
	h.SLO = s.slo.Eval().State
	writeJSON(w, h)
}

// handleMetrics serves the process-wide registry in Prometheus text
// format, after syncing the series this server owns.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncMetrics()
	obs.Default.MetricsHandler().ServeHTTP(w, r)
}

// handleVars is the JSON twin of /metrics: a full metric snapshot plus
// process vitals, in the spirit of expvar.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	s.syncMetrics()
	writeJSON(w, map[string]any{
		"version":       obs.Version(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"goroutines":    runtime.NumGoroutine(),
		"workers":       runtime.GOMAXPROCS(0),
		"events":        s.journal.Stats(),
		"metrics":       obs.Default.Snapshot(),
	})
}

// syncMetrics copies server-owned state into the process-wide registry
// at scrape time: the journal and span-export loss counters advance by
// what this server lost since the last scrape, and one SLO Eval per
// scrape refreshes the per-objective gauges — which also advances the
// alert state machine, so burn state converges even when nobody polls
// /debug/slo.
func (s *Server) syncMetrics() {
	st := s.journal.Stats()
	syncCounter(eventsEmittedTotal, &s.synced.emitted, st.Emitted)
	syncCounter(eventsSampledOutTotal, &s.synced.sampledOut, st.SampledOut)
	syncCounter(eventsSinkDroppedTotal, &s.synced.eventsDropped, st.SinkDropped)
	syncCounter(traceSinkDroppedTotal, &s.synced.spansDropped, s.traces.SinkDropped())
	for _, o := range s.slo.Eval().Objectives {
		state, _ := slo.ParseStateName(o.State)
		obs.Default.Gauge("drevald_slo_state", obs.L("objective", o.Name)).Set(float64(state))
		obs.Default.Gauge("drevald_slo_budget_remaining", obs.L("objective", o.Name)).Set(o.BudgetRemaining)
	}
}

// syncCounter advances c by the growth of a cumulative reading since
// the last one stored in last; counters never go backwards.
func syncCounter(c *obs.Counter, last *atomic.Uint64, cur uint64) {
	if prev := last.Swap(cur); cur > prev {
		c.Add(cur - prev)
	}
}

// recoverGoroutine is the deferred first statement of every background
// goroutine drevald starts: a panic escaping a goroutine kills the
// whole process, so record it in the panic counter and the log instead.
func recoverGoroutine(log *obs.Logger, name string) {
	if v := recover(); v != nil {
		panicsTotal.Inc()
		log.Error("goroutine panicked", "goroutine", name, "panic", fmt.Sprint(v))
	}
}
