package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"drnet/internal/traceio"
	"drnet/internal/walog"
)

// phase is the timed phase of primary ops.
type phase struct {
	// lat is the client latency of each primary op, in ms, ids their
	// X-Request-Ids, start when each cycle began and cycle how long it
	// took (the op plus any read sent with it).
	lat   []float64
	ids   []string
	start []time.Time
	cycle []time.Duration
	// cpu is drevald's CPU time over the whole phase, probe runs and
	// the gaps between cycles included, so work drevald does after a
	// response counts too.
	cpu   time.Duration
	steal *stealWatch
	probe *speedProbe
}

// stealWatch follows the VM's steal counter (/proc/stat), which counts
// the CPU time the hypervisor gave to other guests in 10 ms ticks.
type stealWatch struct {
	first, last int64
	seen        []time.Time // when a read saw the counter advance
}

func newStealWatch() (*stealWatch, error) {
	n, err := stealTicks()
	return &stealWatch{first: n, last: n}, err
}

// read reads the counter and reports whether it advanced since the
// previous read.
func (w *stealWatch) read() (bool, error) {
	n, err := stealTicks()
	if err != nil || n == w.last {
		return false, err
	}
	w.last = n
	w.seen = append(w.seen, time.Now())
	return true, nil
}

// timedPhase runs n primary op cycles back to back, reading the steal
// counter after each and taking a speed probe sample after every
// probeEvery-th. The phase stops early only at the run deadline.
func timedPhase(s *server, n, probeEvery int, deadline time.Time, op func(i int) (time.Duration, string)) (phase, error) {
	p := phase{probe: newSpeedProbe()}
	cpu0, err := s.cpuTime()
	if err != nil {
		return p, err
	}
	if p.steal, err = newStealWatch(); err != nil {
		return p, err
	}
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		d, id := op(i)
		p.start = append(p.start, t0)
		p.cycle = append(p.cycle, time.Since(t0))
		p.lat = append(p.lat, ms(d))
		p.ids = append(p.ids, id)
		if _, err := p.steal.read(); err != nil {
			return p, err
		}
		if i%probeEvery == 0 {
			if err := p.probe.sample(s, p.steal); err != nil {
				return p, err
			}
		}
	}
	cpu1, err := s.cpuTime()
	p.cpu = cpu1 - cpu0
	return p, err
}

// minStealFree is the fewest steal-free cycles the end-to-end figures
// are taken from; with 100, the p90 still rests on ten cycles above it.
const minStealFree = 100

// The timed phase is cut into stealBlocks blocks of consecutive cycles,
// and the figures come from the quietBlocks of them that saw the least
// steal per second.
const (
	stealBlocks = 10
	quietBlocks = 6
)

// quiet marks the cycles of the quietBlocks blocks whose steal counter
// advanced least often per second of wall time; ties go to the earlier
// block. A block spans from its first cycle's start to the next block's,
// probe samples included. Steal on a shared VM comes in spells of
// seconds to minutes, and within a spell drevald slows by more than the
// steal ticks a single cycle sees, so a run keeps the part of itself
// that was furthest from a spell. The choice depends only on the steal
// counter, not on the cycles' own times.
func quiet(p phase) []bool {
	n := len(p.start)
	keep := make([]bool, n)
	if n < stealBlocks {
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	type block struct {
		first, end int // cycle indices [first, end)
		rate       float64
	}
	blocks := make([]block, stealBlocks)
	for k := range blocks {
		b := block{first: k * n / stealBlocks, end: (k + 1) * n / stealBlocks}
		t0 := p.start[b.first]
		t1 := p.start[b.end-1].Add(p.cycle[b.end-1])
		if b.end < n {
			t1 = p.start[b.end]
		}
		events := 0
		for _, t := range p.steal.seen {
			if !t.Before(t0) && t.Before(t1) {
				events++
			}
		}
		b.rate = float64(events) / t1.Sub(t0).Seconds()
		blocks[k] = b
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].rate < blocks[j].rate })
	for _, b := range blocks[:quietBlocks] {
		for i := b.first; i < b.end; i++ {
			keep[i] = true
		}
	}
	return keep
}

// stealFree picks, among the cycles of the quiet blocks, those no CPU
// steal was seen near. A cycle is left out when a read saw the steal
// counter advance within window after the cycle began. The window has
// the same length for every cycle, so a slow cycle is no likelier to be
// left out than a fast one: which cycles go depends on when steal was
// seen, not on how long the cycle took. The window must cover the
// workload's cycles, so that steal inside a cycle is seen within it,
// plus the 10 ms the counter may lag. If fewer than minStealFree cycles
// are left, every cycle of the quiet blocks counts and all is true.
func stealFree(p phase, window time.Duration) (lat []float64, cycle time.Duration, inQuiet int, all bool) {
	keep := quiet(p)
	var quietLat []float64
	var quietCycle time.Duration
	next := 0
	for i, t0 := range p.start {
		if !keep[i] {
			continue
		}
		quietLat = append(quietLat, p.lat[i])
		quietCycle += p.cycle[i]
		for next < len(p.steal.seen) && p.steal.seen[next].Before(t0) {
			next++
		}
		if next < len(p.steal.seen) && p.steal.seen[next].Sub(t0) <= window {
			continue
		}
		lat = append(lat, p.lat[i])
		cycle += p.cycle[i]
	}
	if len(lat) >= minStealFree {
		return lat, cycle, len(quietLat), false
	}
	return quietLat, quietCycle, len(quietLat), true
}

// stealTicks is the VM's cumulative steal time across all CPUs, in
// clock ticks: the eighth value of the "cpu" line of /proc/stat.
func stealTicks() (int64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// startServers starts drevald cfg.setups times and returns the last
// instance still running. The first start, which pays for cold caches,
// is not timed; the others record exec → ready, and setup_s is their
// median.
func startServers(cfg config, dir string, rep *report, args func(i int) ([]string, error)) (*server, error) {
	var s *server
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.stop()
		}
		extra, err := args(i)
		if err != nil {
			return nil, err
		}
		var d time.Duration
		s, d, err = startServer(cfg.drevald, filepath.Join(dir, "drevald.log"), extra...)
		if err != nil {
			return nil, err
		}
		if i > 0 || cfg.setups == 1 {
			rep.Setups = append(rep.Setups, d.Seconds())
		}
	}
	return s, nil
}

// fail counts one failed op.
func (r *report) fail(err error) {
	r.Result.Failed++
	r.note(err)
}

// endToEnd sets the end-to-end metrics, with times stated at the
// probe's reference host speed. Latency and throughput come from the
// steal-free cycles, drevald's CPU time from the whole phase. The raw
// figures and the probe's own figures go to the report.
func endToEnd(rep *report, p phase, window time.Duration, rssMB float64) {
	f := p.probe.factor()
	lat, cycle, inQuiet, all := stealFree(p, window)
	n := float64(len(lat))
	rep.Probe = probeReport{
		Factor: f, Runs: p.probe.runs, CleanRuns: len(p.probe.clean), StealTicks: p.steal.last - p.steal.first,
		Cycles: len(p.lat), QuietCycles: inQuiet, StealFreeCycles: len(lat), AllCycles: all,
	}
	raw := map[string]metric{
		"latency_p50_ms":       {percentile(lat, 0.5), "ms"},
		"latency_p90_ms":       {percentile(lat, 0.9), "ms"},
		"ops_per_s":            {n / cycle.Seconds(), "1/s"},
		"server_cpu_ms_per_op": {ms(p.cpu) / float64(len(p.lat)), "ms"},
	}
	rep.Raw = raw
	m := rep.Result.Metrics
	m["latency_p50_ms"] = metric{raw["latency_p50_ms"].Value / f, "ms"}
	m["latency_p90_ms"] = metric{raw["latency_p90_ms"].Value / f, "ms"}
	m["ops_per_s"] = metric{raw["ops_per_s"].Value * f, "1/s"}
	m["server_cpu_ms_per_op"] = metric{raw["server_cpu_ms_per_op"].Value / f, "ms"}
	m["peak_rss_mb"] = metric{rssMB, "MiB"}
	m["setup_s"] = metric{median(rep.Setups), "s"}
}

// journalEvent is the part of a /debug/events entry the benchmark reads.
type journalEvent struct {
	RequestID  string             `json:"requestId"`
	DurationMs float64            `json:"durationMs"`
	PhaseMs    map[string]float64 `json:"phaseMs"`
}

// serverAttribution reads drevald's event journal after the timed
// phase and sets how long drevald itself took per primary op, how much
// of that its phase spans explain, and what the client waited beyond it.
func serverAttribution(cl *client, route string, p phase, m map[string]metric) error {
	raw, err := cl.get("/debug/events?limit=1000&route=" + url.QueryEscape(route))
	if err != nil {
		return err
	}
	var q struct {
		Events []journalEvent `json:"events"`
	}
	if err := json.Unmarshal(raw, &q); err != nil {
		return fmt.Errorf("/debug/events: %w", err)
	}
	byID := make(map[string]journalEvent, len(q.Events))
	for _, ev := range q.Events {
		byID[ev.RequestID] = ev
	}
	var dur, transport []float64
	var phaseSum, durSum float64
	for i, id := range p.ids {
		ev, ok := byID[id]
		if !ok {
			continue
		}
		dur = append(dur, ev.DurationMs)
		transport = append(transport, p.lat[i]-ev.DurationMs)
		durSum += ev.DurationMs
		names := make([]string, 0, len(ev.PhaseMs))
		for name := range ev.PhaseMs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			phaseSum += ev.PhaseMs[name]
		}
	}
	if len(dur) == 0 {
		return errors.New("no timed request found in drevald's event journal")
	}
	m["server.duration_p50_ms"] = metric{median(dur), "ms"}
	m["server.span_covered_share"] = metric{phaseSum / durSum, "share"}
	m["client.transport_ms"] = metric{median(transport), "ms"}
	return nil
}

func runEvaluate(cfg config, dir string, rep *report, deadline time.Time) error {
	body := narrowBody(cfg.seed)
	if cfg.workload == "evaluate_wide_boot" {
		body = wideBody(cfg.seed)
	}
	rep.Inputs["evaluate"] = sha(body)
	rep.InputBytes = len(body)
	j, err := newJournal()
	if err != nil {
		return err
	}
	oracle, err := evaluatePipeline(context.Background(), nil, j, "oracle", body)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	procs := runtime.GOMAXPROCS(1) // the client needs one; leave drevald the rest
	defer runtime.GOMAXPROCS(procs)
	s, err := startServers(cfg, dir, rep, func(int) ([]string, error) { return nil, nil })
	if err != nil {
		return err
	}
	defer s.stop()
	cl := newClient(s.base, cfg.transport)
	gate := &evalGate{oracle: oracle}
	op := func(id string) time.Duration {
		rep.Result.Attempted++
		st, resp, d, err := cl.post("/evaluate", id, body)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("/evaluate: status %d", st)
		}
		if err == nil {
			err = gate.check(resp)
		}
		if err != nil {
			rep.fail(err)
		}
		return d
	}
	for i := 0; i < cfg.warmup; i++ {
		op("warm-" + strconv.Itoa(i))
	}
	p, err := timedPhase(s, cfg.ops, cfg.probeEvery, deadline, func(i int) (time.Duration, string) {
		id := "op-" + strconv.Itoa(i)
		return op(id), id
	})
	if err != nil {
		return err
	}
	rss, err := s.peakRSS()
	if err != nil {
		return err
	}
	if !cfg.trace {
		endToEnd(rep, p, cfg.stealWindow, rss)
		return nil
	}
	m := rep.Result.Metrics
	if err := serverAttribution(cl, "/evaluate", p, m); err != nil {
		return err
	}
	m["client.read_p50_ms"] = metric{0, "ms"}
	m["client.read_p90_ms"] = metric{0, "ms"}
	s.stop()

	runtime.GOMAXPROCS(procs)
	ctx := context.Background()
	if _, err := evaluatePipeline(ctx, nil, j, "warm", body); err != nil {
		return err
	}
	tr := newTracer()
	before := memStats(true)
	for i := 0; i < cfg.replay && time.Now().Before(deadline); i++ {
		rep.Result.Attempted++
		tr.begin("evaluate")
		out, err := evaluatePipeline(ctx, tr, j, "replay-"+strconv.Itoa(i), body)
		tr.end()
		if err == nil {
			err = matchOracle(out, oracle)
		}
		if err != nil {
			rep.fail(fmt.Errorf("replay: %w", err))
		}
	}
	layerMetrics(m, tr, before, memStats(false), "evaluate")
	return writeTrace(cfg, tr)
}

func runIngest(cfg config, dir string, rep *report, deadline time.Time) error {
	in := newIngestInputs(cfg.seed)
	for i, b := range in.bodies {
		rep.Inputs[fmt.Sprintf("ingest-%02d", i)] = sha(b)
		rep.InputBytes += len(b)
	}
	rep.Inputs["read"] = sha(in.read)
	walSrc := filepath.Join(dir, "wal-src")
	digest, err := buildWAL(walSrc, in.preload)
	if err != nil {
		return fmt.Errorf("build WAL: %w", err)
	}
	rep.Inputs["walPreload"] = digest

	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	s, err := startServers(cfg, dir, rep, func(i int) ([]string, error) {
		walDir := filepath.Join(dir, "wal-"+strconv.Itoa(i))
		if err := copyDir(walSrc, walDir); err != nil {
			return nil, err
		}
		return []string{"-wal-dir", walDir, "-fsync", "never"}, nil
	})
	if err != nil {
		return err
	}
	defer s.stop()
	cl := newClient(s.base, cfg.transport)
	gate := &ingestGate{epoch: ingestPreload, lastSeq: -1}
	read := func(id string) time.Duration {
		rep.Result.Attempted++
		st, resp, d, err := cl.post("/evaluate", id, in.read)
		if err == nil {
			err = gate.checkRead(st, resp)
		}
		if err != nil {
			rep.fail(err)
		}
		return d
	}
	ingest := func(i int, id string) time.Duration {
		rep.Result.Attempted++
		st, resp, d, err := cl.post("/ingest", id, in.bodies[i%ingestPool])
		if err == nil {
			err = gate.checkAck(st, resp)
		}
		if err != nil {
			rep.fail(err)
		}
		return d
	}
	// The first streamed read registers the policy: one O(n) fold over
	// the replayed records, paid once, so it is warm-up.
	read("register")
	for i := 0; i < cfg.warmup; i++ {
		ingest(i, "warm-"+strconv.Itoa(i))
		if (i+1)%ingestReadEvery == 0 {
			read("warm-read-" + strconv.Itoa(i))
		}
	}
	var reads []float64
	p, err := timedPhase(s, cfg.ops, cfg.probeEvery, deadline, func(i int) (time.Duration, string) {
		id := "op-" + strconv.Itoa(i)
		d := ingest(cfg.warmup+i, id)
		if (i+1)%ingestReadEvery == 0 {
			reads = append(reads, ms(read("read-"+strconv.Itoa(i))))
		}
		return d, id
	})
	if err != nil {
		return err
	}
	rep.Result.Attempted++
	if h, err := getHealth(cl.hc, s.base); err != nil || h.WAL == nil || h.WAL.Epoch != gate.epoch {
		rep.fail(fmt.Errorf("final epoch: want %d acked, /healthz says %+v (err %v)", gate.epoch, h.WAL, err))
	}
	rss, err := s.peakRSS()
	if err != nil {
		return err
	}
	if !cfg.trace {
		endToEnd(rep, p, cfg.stealWindow, rss)
		return nil
	}
	m := rep.Result.Metrics
	if err := serverAttribution(cl, "/ingest", p, m); err != nil {
		return err
	}
	m["client.read_p50_ms"] = metric{percentile(reads, 0.5), "ms"}
	m["client.read_p90_ms"] = metric{percentile(reads, 0.9), "ms"}
	s.stop()

	runtime.GOMAXPROCS(procs)
	walDir := filepath.Join(dir, "wal-replay")
	if err := copyDir(walSrc, walDir); err != nil {
		return err
	}
	tr := newTracer()
	st, err := openStream(tr, walDir)
	if err != nil {
		return fmt.Errorf("replay WAL: %w", err)
	}
	defer st.close()
	if _, err := st.read(nil, "register", in.read); err != nil {
		return err
	}
	rgate := &ingestGate{epoch: ingestPreload, lastSeq: -1}
	before := memStats(true)
	for i := 0; i < cfg.replay && time.Now().Before(deadline); i++ {
		id := "replay-" + strconv.Itoa(i)
		rep.Result.Attempted++
		tr.begin("ingest")
		out, err := st.ingest(tr, id, in.bodies[i%ingestPool], true)
		tr.end()
		if err == nil {
			err = rgate.checkAck(http.StatusOK, out)
		}
		if err != nil {
			rep.fail(fmt.Errorf("replay: %w", err))
		}
		if (i+1)%ingestReadEvery != 0 {
			continue
		}
		rep.Result.Attempted++
		tr.begin("read")
		out, err = st.read(tr, id, in.read)
		tr.end()
		if err == nil {
			err = rgate.checkRead(http.StatusOK, out)
		}
		if err != nil {
			rep.fail(fmt.Errorf("replay: %w", err))
		}
	}
	layerMetrics(m, tr, before, memStats(false), "ingest", "read", "setup")
	return writeTrace(cfg, tr)
}

// buildWAL writes the preload through the program's own WAL and batch
// codec, one frame per batch, and returns the SHA-256 of the payloads.
func buildWAL(dir string, frames [][]traceio.FlatRecord) (string, error) {
	l, _, err := walog.Open(walog.Options{Dir: dir, Fsync: walog.FsyncNever})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf []byte
	for _, f := range frames {
		buf = traceio.EncodeBatch(buf[:0], f)
		h.Write(buf)
		if _, err := l.Append(buf); err != nil {
			l.Close()
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), l.Close()
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error is the one to report
		return err
	}
	return out.Close()
}

// memStats reads the allocator counters; with gc it first collects, so
// the replay starts from a clean heap.
func memStats(gc bool) runtime.MemStats {
	if gc {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// layerSpec names a per-layer metric and where the tracer holds it.
type layerSpec struct {
	name, unit, source string
	span               bool
}

var layers = []layerSpec{
	{"drevald.decode_ms", "ms", "drevald.decode", true},
	{"drevald.decode_allocs", "count", "drevald.decode_allocs", false},
	{"traceio.to_core_ms", "ms", "traceio.to_core", true},
	{"core.validate_ms", "ms", "core.validate", true},
	{"traceio.parse_policy_ms", "ms", "traceio.parse_policy", true},
	{"core.build_view_ms", "ms", "core.build_view", true},
	{"core.build_view_allocs", "count", "core.build_view_allocs", false},
	{"traceio.key_calls", "count", "traceio.key_calls", false},
	{"core.unique_contexts", "count", "core.unique_contexts", false},
	{"core.policy_calls", "count", "core.policy_calls", false},
	{"core.diagnose_ms", "ms", "core.diagnose", true},
	{"biasobs.compute_ms", "ms", "biasobs.compute", true},
	{"core.fit_ms", "ms", "core.fit", true},
	{"core.dm_ms", "ms", "core.dm", true},
	{"core.ips_ms", "ms", "core.ips", true},
	{"core.dr_ms", "ms", "core.dr", true},
	{"core.fallback_ms", "ms", "core.fallback", true},
	{"core.bootstrap_ms", "ms", "core.bootstrap", true},
	{"core.bootstrap_cpu_ms", "ms", "core.bootstrap_cpu_ms", false},
	{"core.bootstrap_resamples", "count", "core.bootstrap_resamples", false},
	{"core.bootstrap_skipped", "count", "core.bootstrap_skipped", false},
	{"drevald.encode_ms", "ms", "drevald.encode", true},
	{"drevald.encode_bytes", "B", "drevald.encode_bytes", false},
	{"wideevent.record_ms", "ms", "wideevent.record", true},
	{"traceio.encode_batch_ms", "ms", "traceio.encode_batch", true},
	{"walog.append_ms", "ms", "walog.append", true},
	{"walog.append_bytes", "B", "walog.append_bytes", false},
	{"walog.sync_ms", "ms", "walog.sync", true},
	{"core.view_append_ms", "ms", "core.view_append", true},
	{"core.stream_apply_ms", "ms", "core.stream_apply", true},
	{"core.stream_estimates_ms", "ms", "core.stream_estimates", true},
	{"walog.replay_ms", "ms", "walog.replay", true},
}

// layerMetrics sets the per-layer metrics from the traced replay. kinds
// lists the request kinds in the order a layer's value is looked for;
// the first is the workload's primary op.
func layerMetrics(m map[string]metric, tr *tracer, before, after runtime.MemStats, kinds ...string) {
	for _, l := range layers {
		m[l.name] = metric{tr.layer(l.source, l.span, kinds...), l.unit}
	}
	useful := 0.0
	if res := m["core.bootstrap_resamples"].Value; res > 0 {
		useful = (res - m["core.bootstrap_skipped"].Value) / res
	}
	m["core.bootstrap_useful_ratio"] = metric{useful, "share"}
	ops := float64(tr.numRequests(kinds[0]))
	m["go.allocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / ops, "count"}
	m["go.alloc_bytes_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / ops, "B"}
	m["go.gc_cycles_per_op"] = metric{float64(after.NumGC-before.NumGC) / ops, "count"}
	m["replay.request_ms"] = metric{tr.rootMs(kinds[0]), "ms"}
	m["replay.span_covered_share"] = metric{tr.coveredShare(kinds[0]), "share"}
}

func writeTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
