// Command e2ebench is drevald's end-to-end benchmark. It builds nothing
// itself (run.sh builds drevald and this program from the checkout),
// starts the real drevald binary, and drives it over loopback HTTP from
// one closed-loop client on one keep-alive connection.
//
//	e2ebench -root <repo> -drevald <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	e2ebench -compare a.json b.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a shorter HTTP phase for drevald's own request journal and then
// replays the workload in-process with spans around every layer. The
// last line of standard output is the result object; the line before
// it is the full report, also written under .bench_build/reports.
// README.md beside this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloadSpec sizes one workload. Op counts are fixed per --seconds,
// not measured against a clock, so every run of a workload takes the
// same number of samples. The evaluate rates are what those workloads
// sustain on a 2-vCPU x86-64 VM, so a run measures for about --seconds;
// ingest_stream sustains about 750 acks/s, but drevald keeps every
// ingested record in memory, so its counts are capped.
type workloadSpec struct {
	opsPerSecond    float64 // timed primary ops per second of --seconds
	warmup          int     // discarded primary ops before the timed phase
	replayPerSecond float64 // traced in-process ops per second of --seconds
	maxOps          int     // cap on the timed ops, 0 for none
	maxReplay       int     // cap on the traced in-process ops, 0 for none
	setups          int     // drevald starts whose median is setup_s
	probeEvery      int     // run the speed probe after every probeEvery-th op
	// stealWindow is how long after a cycle begins a steal tick leaves
	// it out: the counter's 10 ms lag plus the workload's p90 cycle
	// with room for cycles half again as slow.
	stealWindow time.Duration
}

var workloads = map[string]workloadSpec{
	"evaluate_narrow":    {opsPerSecond: 95, warmup: 40, replayPerSecond: 12, setups: 9, probeEvery: 1, stealWindow: 40 * time.Millisecond},
	"evaluate_wide_boot": {opsPerSecond: 22, warmup: 10, replayPerSecond: 3, setups: 9, probeEvery: 1, stealWindow: 80 * time.Millisecond},
	"ingest_stream":      {opsPerSecond: 150, warmup: 200, replayPerSecond: 60, maxOps: 2250, maxReplay: 900, setups: 6, probeEvery: 2, stealWindow: 15 * time.Millisecond},
}

// tracedHTTPOps caps the traced run's HTTP phase so every timed request
// is still in drevald's 1024-event journal when it is read back.
const tracedHTTPOps = 800

// runBudget is how long a run may spend in its timed loops before it
// stops early; the whole process must end within 180 s.
const runBudget = 140 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // repository root
	drevald  string // drevald binary

	ops, warmup, replay, setups, probeEvery int
	stealWindow                             time.Duration
	// transport replaces the client's HTTP transport (nil: default);
	// the self-test uses it to corrupt responses.
	transport http.RoundTripper
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.drevald, "drevald", "", "drevald binary")
	flag.BoolVar(&compare, "compare", false, "compare two report files given as arguments")
	flag.Parse()
	if compare {
		return compareReports(flag.Args())
	}
	spec, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.drevald == "" {
		fmt.Fprintln(os.Stderr, "e2ebench: need -drevald, a known --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.trace = *trace == 1
	cfg.ops = max(1, int(spec.opsPerSecond*float64(cfg.seconds)))
	cfg.warmup = spec.warmup
	cfg.replay = max(4, int(spec.replayPerSecond*float64(cfg.seconds)))
	if spec.maxOps > 0 {
		cfg.ops = min(cfg.ops, spec.maxOps)
	}
	if spec.maxReplay > 0 {
		cfg.replay = min(cfg.replay, spec.maxReplay)
	}
	cfg.setups = spec.setups
	cfg.probeEvery = spec.probeEvery
	cfg.stealWindow = spec.stealWindow
	if cfg.trace {
		cfg.ops = min(cfg.ops, tracedHTTPOps)
		cfg.setups = 1
	}

	rep, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := writeReport(cfg, line); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	out, _ := json.Marshal(rep.Result) // maps of float64 always marshal
	fmt.Println(string(out))
	return 0
}

// report is everything one run knows about itself.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Stamp    stamp  `json:"stamp"`
	// Inputs maps each generated body to its SHA-256.
	Inputs     map[string]string `json:"inputs"`
	InputBytes int               `json:"inputBytes"`
	Ops        int               `json:"ops"`
	Warmup     int               `json:"warmup"`
	Setups     []float64         `json:"setupSeconds"`
	Errors     []string          `json:"errors,omitempty"`
	// Probe is the host speed the timed phase saw; Raw holds the
	// end-to-end timings before they were divided by it.
	Probe  probeReport       `json:"probe"`
	Raw    map[string]metric `json:"raw,omitempty"`
	Result result            `json:"result"`
}

// probeReport is the host the timed phase saw. Factor scales the
// end-to-end timings, and CleanRuns of the probe's Runs counted towards
// it. StealTicks is the VM's steal over the phase, in 10 ms ticks.
// QuietCycles of the Cycles lay in the quiet blocks, and
// StealFreeCycles of those gave latency and throughput, unless
// AllCycles says too few were steal-free and every quiet cycle counted.
type probeReport struct {
	Factor          float64 `json:"factor"`
	Runs            int     `json:"runs"`
	CleanRuns       int     `json:"cleanRuns"`
	StealTicks      int64   `json:"stealTicks"`
	Cycles          int     `json:"cycles"`
	QuietCycles     int     `json:"quietCycles"`
	StealFreeCycles int     `json:"stealFreeCycles"`
	AllCycles       bool    `json:"allCycles"`
}

// note records a failed op's reason; the first few are kept.
func (r *report) note(err error) {
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func runBench(cfg config) (*report, error) {
	deadline := time.Now().Add(runBudget)
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Stamp: newStamp(cfg.root), Inputs: map[string]string{}, Ops: cfg.ops, Warmup: cfg.warmup,
		Result: result{Metrics: map[string]metric{}},
	}
	dir := filepath.Join(cfg.root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.workload == "ingest_stream" {
		err = runIngest(cfg, dir, rep, deadline)
	} else {
		err = runEvaluate(cfg, dir, rep, deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("%s (run files kept in %s)", err, dir)
	}
	rep.Result.Correct = rep.Result.Failed == 0
	if !rep.Result.Correct {
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "e2ebench: failed op:", e)
		}
		return rep, nil
	}
	return rep, os.RemoveAll(dir)
}

func writeReport(cfg config, line []byte) error {
	dir := filepath.Join(cfg.root, ".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, t)
	return os.WriteFile(filepath.Join(dir, name), append(line, '\n'), 0o644)
}

// compareReports prints the metric-by-metric change between two
// reports, or "incomparable" when they were taken on different
// hardware or toolchains.
func compareReports(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "e2ebench: -compare needs two report files")
		return 2
	}
	var reps [2]report
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	if why := a.Stamp.mismatch(b.Stamp); why != "" {
		fmt.Println("incomparable:", why)
		return 3
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Println("incomparable: different workload, trace mode or run length")
		return 3
	}
	if a.Probe.AllCycles != b.Probe.AllCycles {
		fmt.Println("incomparable: one report counts steal-free cycles, the other every cycle")
		return 3
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for name := range a.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ma := a.Result.Metrics[name]
		mb, ok := b.Result.Metrics[name]
		if !ok {
			continue
		}
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("%-32s %14.4f %14.4f %8s %s\n", name, ma.Value, mb.Value, change, ma.Unit)
	}
	return 0
}
