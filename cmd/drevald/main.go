// Command drevald serves trace-driven policy evaluation over HTTP, so
// measurement pipelines can POST logged traces and receive DM/IPS/DR
// estimates with diagnostics — the paper's Figure 1 evaluator as a
// network service.
//
// Endpoints:
//
//	GET  /healthz       liveness probe: status, uptime, version, timeouts,
//	                    last trace, bias grade, WAL, journal and SLO state
//	POST /diagnose      {trace, policy} → overlap diagnostics
//	POST /evaluate      {trace, policy, options} → DM/IPS/DR estimates,
//	                    diagnostics and an optional bootstrap CI
//	POST /ingest        {records} → durable WAL append (with -wal-dir)
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/vars    JSON metric snapshot + process vitals
//	GET  /debug/traces  the n slowest recent requests as span timelines
//	GET  /debug/bias    the latest bias-observatory report
//	GET  /debug/events  wide-event journal query (filter language)
//	GET  /debug/slo     burn rates and alert state per objective
//
// With -debug-addr set, a second listener additionally serves
// net/http/pprof under /debug/pprof/ (plus the metric and debug
// endpoints), kept off the service port so profiling is opt-in.
//
// Request schema (JSON):
//
//	{
//	  "trace":  [{"features":[...], "decision":"d", "reward":r,
//	              "propensity":p}, ...],
//	  "policy": "constant:<decision>" | "best-observed",
//	  "options": {"clip":0, "selfNormalize":false,
//	              "estimatePropensities":false, "bootstrap":200,
//	              "seed":1, "refreshModel":false}
//	}
//
// An empty trace with -wal-dir set is answered from the streaming
// aggregates of the records ingested so far.
//
// Usage:
//
//	drevald [flags]     (drevald -h lists all 33)
//
// Every flag is one field of Config, named after it (-addr is
// Config.Addr, -wal-dir Config.WALDir, ...), with the same default and
// validation message. main binds the flags into a Config, and New
// turns that Config into a Server: the value that owns the admission
// limiters, degradation thresholds, span recorder, wide-event journal,
// SLO engine, streaming engine and logger. Its handlers are methods,
// so several Servers can share one process (the tests build many);
// only the obs.Default metric registry and the worker-pool width are
// process-wide.
//
// Compute requests are traced: the root span's trace ID is the
// request's X-Request-Id and each evaluation phase is a child span,
// which also feeds the request's wide event. Bootstrap resamples run
// on a shared worker pool -workers wide with one PCG stream per
// resample derived from options.seed, so responses are bit-identical
// at every worker count. The server drains in-flight requests on
// SIGINT or SIGTERM before exiting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/changepoint"
	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/walog"
)

func main() {
	cfg := DefaultConfig()
	cfg.bindFlags(flag.CommandLine)
	flag.Parse()
	srv, err := New(cfg)
	if err != nil {
		log.Fatalf("drevald: %v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			srv.log.Error("shutdown close failed", "err", err)
		}
	}()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		log.Fatalf("drevald: %v", err)
	}
	if cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			log.Fatalf("drevald: debug listener: %v", err)
		}
		go func() {
			defer recoverGoroutine(srv.log, "debug-listener")
			if err := http.Serve(dln, srv.debugMux()); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srv.log.Error("debug listener failed", "err", err)
			}
		}()
		srv.log.Info("debug listener up", "addr", dln.Addr().String())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	srv.log.Info("drevald listening", "addr", ln.Addr().String(), "version", obs.Version(), "workers", parallel.DefaultWorkers())
	if err := srv.Serve(ln, stop); err != nil {
		log.Fatalf("drevald: %v", err)
	}
}

// Config is drevald's whole configuration, one field per command-line
// flag. Each field is named after its flag; bindFlags documents them.
type Config struct {
	Addr      string
	Workers   int
	DebugAddr string
	LogLevel  string

	// Resilience: deadlines, admission and degradation.
	RequestTimeout   time.Duration
	DrainTimeout     time.Duration
	MaxConcurrent    int
	MaxQueue         int
	ESSRatioFloor    float64
	MaxWeightCeiling float64
	ZeroSupportCap   float64
	FallbackClip     float64

	// Bias observatory.
	BiasWindows        int
	BiasDriftThreshold float64
	DegradeOnDrift     bool

	// Span recorder.
	TraceOut    string
	TraceBuffer int

	// Streaming ingestion; WALDir == "" disables the rest.
	WALDir              string
	Fsync               string
	FsyncInterval       time.Duration
	SegmentBytes        int64
	IngestMaxBytes      int64
	IngestMaxConcurrent int
	IngestMaxQueue      int
	MaxModelAge         uint64
	BiasRefresh         int

	// Wide-event journal and SLO engine.
	EventsBuffer     int
	EventsSample     float64
	EventsSlowMs     float64
	EventsSeed       uint64
	EventsOut        string
	SLOConfig        string
	DegradeOnSLOPage bool
}

// DefaultConfig returns the flag defaults.
func DefaultConfig() Config {
	th := resilience.DefaultThresholds()
	return Config{
		Addr:                ":8080",
		LogLevel:            "info",
		RequestTimeout:      60 * time.Second,
		DrainTimeout:        10 * time.Second,
		MaxConcurrent:       64,
		MaxQueue:            256,
		ESSRatioFloor:       th.ESSRatioFloor,
		MaxWeightCeiling:    th.MaxWeightCeiling,
		ZeroSupportCap:      th.ZeroSupportCap,
		FallbackClip:        10,
		BiasWindows:         biasobs.DefaultWindows,
		BiasDriftThreshold:  changepoint.DefaultThreshold,
		TraceBuffer:         512,
		Fsync:               "always",
		FsyncInterval:       100 * time.Millisecond,
		SegmentBytes:        64 << 20,
		IngestMaxBytes:      16 << 20,
		IngestMaxConcurrent: 16,
		IngestMaxQueue:      64,
		EventsBuffer:        1024,
		EventsSample:        1,
		EventsSlowMs:        250,
		EventsSeed:          1,
	}
}

// bindFlags registers one flag per field on fs, defaulting to c's
// current values.
func (c *Config) bindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.IntVar(&c.Workers, "workers", c.Workers, "worker-pool width for per-request bootstrap resampling (0 = GOMAXPROCS)")
	fs.StringVar(&c.DebugAddr, "debug-addr", c.DebugAddr, "optional second listen address for /debug/pprof, /metrics and /debug/vars (empty = disabled)")
	fs.StringVar(&c.LogLevel, "log-level", c.LogLevel, "log level: debug, info, warn, error")
	fs.DurationVar(&c.RequestTimeout, "request-timeout", c.RequestTimeout, "per-request deadline for /evaluate and /diagnose; the bootstrap stops scheduling work once it expires (0 = no deadline)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", c.DrainTimeout, "how long shutdown waits for in-flight requests to finish (must be > 0)")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", c.MaxConcurrent, "maximum /evaluate and /diagnose requests computing at once (must be >= 1)")
	fs.IntVar(&c.MaxQueue, "max-queue", c.MaxQueue, "requests allowed to wait for a compute slot before the server sheds with 429 (0 = no queue)")
	fs.Float64Var(&c.ESSRatioFloor, "ess-ratio-floor", c.ESSRatioFloor, "degrade /evaluate responses when ESS/N falls below this (0 = disabled)")
	fs.Float64Var(&c.MaxWeightCeiling, "max-weight-ceiling", c.MaxWeightCeiling, "degrade /evaluate responses when the largest importance weight exceeds this (0 = disabled)")
	fs.Float64Var(&c.ZeroSupportCap, "zero-support-cap", c.ZeroSupportCap, "degrade /evaluate responses when the zero-support record fraction exceeds this (0 = disabled)")
	fs.Float64Var(&c.FallbackClip, "fallback-clip", c.FallbackClip, "importance-weight clip of the degraded-mode fallback estimator (must be > 0)")
	fs.IntVar(&c.BiasWindows, "bias-windows", c.BiasWindows, "windows the bias observatory slices each request's trace into (0 = observatory disabled)")
	fs.Float64Var(&c.BiasDriftThreshold, "bias-drift-threshold", c.BiasDriftThreshold, "CUSUM decision threshold in sigma units for the observatory's drift alarms (must be > 0)")
	fs.BoolVar(&c.DegradeOnDrift, "degrade-on-drift", c.DegradeOnDrift, "tag /evaluate responses degraded with a trace_drift reason when a drift alarm fires")
	fs.StringVar(&c.TraceOut, "trace-out", c.TraceOut, "append every completed span as one JSON line (JSONL) to this file (empty = disabled)")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", c.TraceBuffer, "completed spans kept in memory for /debug/traces (must be >= 1)")
	fs.StringVar(&c.WALDir, "wal-dir", c.WALDir, "directory for the streaming write-ahead log; enables POST /ingest and aggregate-served /evaluate (empty = streaming disabled)")
	fs.StringVar(&c.Fsync, "fsync", c.Fsync, "WAL durability point: always (ack == durable), interval, or never")
	fs.DurationVar(&c.FsyncInterval, "fsync-interval", c.FsyncInterval, "background sync period under -fsync interval (must be > 0)")
	fs.Int64Var(&c.SegmentBytes, "segment-bytes", c.SegmentBytes, "WAL segment rotation threshold in bytes")
	fs.Int64Var(&c.IngestMaxBytes, "ingest-max-bytes", c.IngestMaxBytes, "maximum /ingest body size in bytes (must be >= 1)")
	fs.IntVar(&c.IngestMaxConcurrent, "ingest-max-concurrent", c.IngestMaxConcurrent, "maximum /ingest batches applying at once (must be >= 1)")
	fs.IntVar(&c.IngestMaxQueue, "ingest-max-queue", c.IngestMaxQueue, "ingest batches allowed to wait before 429 (0 = no queue)")
	fs.Uint64Var(&c.MaxModelAge, "max-model-age", c.MaxModelAge, "degrade streamed responses whose reward model is more than this many records behind the live epoch (0 = never)")
	fs.IntVar(&c.BiasRefresh, "bias-refresh", c.BiasRefresh, "rerun the bias observatory over the streamed view every this many ingested records (0 = disabled)")
	fs.IntVar(&c.EventsBuffer, "events-buffer", c.EventsBuffer, "wide events retained in memory for /debug/events (must be >= 1)")
	fs.Float64Var(&c.EventsSample, "events-sample", c.EventsSample, "fraction of healthy wide events retained; error, degraded and slow events are always kept (must be in [0, 1])")
	fs.Float64Var(&c.EventsSlowMs, "events-slow-ms", c.EventsSlowMs, "wide events at least this slow are always retained regardless of -events-sample (0 = disabled)")
	fs.Uint64Var(&c.EventsSeed, "events-seed", c.EventsSeed, "seed of the deterministic healthy-event sampler")
	fs.StringVar(&c.EventsOut, "events-out", c.EventsOut, "append every retained wide event as one JSON line (JSONL) to this file (empty = disabled)")
	fs.StringVar(&c.SLOConfig, "slo-config", c.SLOConfig, "JSON file declaring the SLO objectives and burn-rate windows (empty = built-in defaults)")
	fs.BoolVar(&c.DegradeOnSLOPage, "degrade-on-slo-page", c.DegradeOnSLOPage, "tag /evaluate responses degraded with an slo_burn reason while any objective burns at page severity")
}

// Validate checks every field that has a constraint, returning the
// first violation named by its flag. Streaming fields are only checked
// when WALDir enables streaming.
func (c Config) Validate() error {
	switch {
	case c.DrainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be > 0, got %v", c.DrainTimeout)
	case c.RequestTimeout < 0:
		return fmt.Errorf("-request-timeout must be >= 0, got %v", c.RequestTimeout)
	case c.MaxConcurrent < 1:
		return fmt.Errorf("-max-concurrent must be >= 1, got %d", c.MaxConcurrent)
	case c.MaxQueue < 0:
		return fmt.Errorf("-max-queue must be >= 0, got %d", c.MaxQueue)
	case c.ESSRatioFloor < 0 || c.MaxWeightCeiling < 0 || c.ZeroSupportCap < 0:
		return errors.New("degradation thresholds must be >= 0")
	case c.FallbackClip <= 0:
		return fmt.Errorf("-fallback-clip must be > 0, got %g", c.FallbackClip)
	case c.BiasWindows < 0:
		return fmt.Errorf("-bias-windows must be >= 0, got %d", c.BiasWindows)
	case c.BiasDriftThreshold <= 0:
		return fmt.Errorf("-bias-drift-threshold must be > 0, got %g", c.BiasDriftThreshold)
	case c.EventsBuffer < 1:
		return fmt.Errorf("-events-buffer must be >= 1, got %d", c.EventsBuffer)
	case c.EventsSample < 0 || c.EventsSample > 1:
		return fmt.Errorf("-events-sample must be in [0, 1], got %g", c.EventsSample)
	case c.EventsSlowMs < 0:
		return fmt.Errorf("-events-slow-ms must be >= 0, got %g", c.EventsSlowMs)
	case c.TraceBuffer < 1:
		return fmt.Errorf("-trace-buffer must be >= 1, got %d", c.TraceBuffer)
	}
	if _, err := obs.ParseLevel(c.LogLevel); err != nil {
		return err
	}
	if c.WALDir == "" {
		return nil
	}
	if _, err := walog.ParseFsyncPolicy(c.Fsync); err != nil {
		return fmt.Errorf("-fsync: %v", err)
	}
	switch {
	case c.IngestMaxBytes < 1:
		return fmt.Errorf("-ingest-max-bytes must be >= 1, got %d", c.IngestMaxBytes)
	case c.IngestMaxConcurrent < 1:
		return fmt.Errorf("-ingest-max-concurrent must be >= 1, got %d", c.IngestMaxConcurrent)
	case c.IngestMaxQueue < 0:
		return fmt.Errorf("-ingest-max-queue must be >= 0, got %d", c.IngestMaxQueue)
	case c.BiasRefresh < 0:
		return fmt.Errorf("-bias-refresh must be >= 0, got %d", c.BiasRefresh)
	}
	return nil
}
