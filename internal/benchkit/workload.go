package benchkit

import (
	"context"
	"fmt"

	"drnet/internal/core"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

// decisions is the synthetic workload's action space.
var decisions = [3]string{"a", "b", "c"}

// SyntheticTrace generates a deterministic logged trace of n records:
// a small discrete context space (8×4 feature grid, so the table
// reward model has dense cells), a softly context-dependent logging
// policy, and a reward with decision- and context-dependent structure
// plus bounded noise. Identical (n, seed) inputs produce identical
// traces, byte for byte, so benchmark cells are comparable across
// processes and machines.
func SyntheticTrace(n int, seed int64) []traceio.FlatRecord {
	s := splitmix(uint64(seed) ^ 0x6265_6e63_686b_6974) // "benchkit"
	recs := make([]traceio.FlatRecord, n)
	for i := range recs {
		f0 := float64(i % 8)
		f1 := float64((i / 8) % 4)
		// Logging policy: favour decision (i%3) with p=0.6, split the
		// rest evenly — every decision has support everywhere, keeping
		// propensities in (0,1] and IPS weights bounded.
		favored := i % 3
		probs := [3]float64{0.2, 0.2, 0.2}
		probs[favored] = 0.6
		u := s.float64()
		var choice int
		switch {
		case u < probs[0]:
			choice = 0
		case u < probs[0]+probs[1]:
			choice = 1
		default:
			choice = 2
		}
		reward := 1.0/(1.0+f0) + 0.1*f1
		if choice == favored {
			reward += 0.5
		}
		reward += 0.1 * (s.float64() - 0.5)
		recs[i] = traceio.FlatRecord{
			Features:   []float64{f0, f1},
			Decision:   decisions[choice],
			Reward:     reward,
			Propensity: probs[choice],
		}
	}
	return recs
}

// splitmix is a SplitMix64 stream: tiny, deterministic, and
// independent of the evaluation RNGs in internal/parallel, so the
// harness can never perturb what it measures.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// workloadData is the shared per-(size, seed) input every estimator
// cell runs against: the trace's columnar view and the target policy.
type workloadData struct {
	view   *core.TraceView[traceio.FlatContext, string]
	policy core.Policy[traceio.FlatContext, string]
}

// newWorkloadData builds the inputs for one (size, seed) combination.
func newWorkloadData(size int, seed int64) *workloadData {
	trace := traceio.ToCore(traceio.FlatTrace{Records: SyntheticTrace(size, seed)})
	policy, err := traceio.ParsePolicy("best-observed", trace)
	if err != nil {
		// The synthetic trace always has observed decisions; reaching
		// this is a programmer error in the generator.
		panic(fmt.Sprintf("benchkit: building workload policy: %v", err))
	}
	view, err := core.NewTraceViewKeyedCtx(context.Background(), trace, traceio.FlatContext.Key)
	if err != nil {
		// SyntheticTrace only emits valid records; reaching this is a
		// programmer error in the generator.
		panic(fmt.Sprintf("benchkit: building workload view: %v", err))
	}
	return &workloadData{view: view, policy: policy}
}

// drEventsCell is one DR operation wrapped in the same wide-event
// choreography drevald performs per request. A nil journal yields a
// nil builder whose methods no-op — the measured baseline for the
// events_on/events_off overhead comparison.
func drEventsCell(w *workloadData, j *wideevent.Journal) func() error {
	return func() error {
		evb := j.Begin("bench", "/evaluate")
		evb.SetPolicy("best-observed")
		endFit := evb.Phase("fit_model")
		model := core.FitTableView(w.view)
		endFit()
		endDR := evb.Phase("dr")
		_, err := core.DoublyRobustViewCtx(context.Background(), w.view, w.policy, model, core.DROptions{})
		endDR()
		if err != nil {
			evb.SetError(err.Error())
			evb.Finish(500)
			return err
		}
		evb.SetRegime(0.5, 2, 0)
		evb.Finish(200)
		return nil
	}
}

// workloads maps estimator names to cell constructors. Each returned
// closure performs one full operation of the kind drevald serves —
// including the model fit for the model-based estimators, since that
// is part of every real request — on the columnar TraceView estimators.
var workloads = map[string]func(*workloadData, Config) func() error{
	"dm": func(w *workloadData, _ Config) func() error {
		return func() error {
			model := core.FitTableView(w.view)
			_, err := core.DirectMethodViewCtx(context.Background(), w.view, w.policy, model)
			return err
		}
	},
	"ips": func(w *workloadData, _ Config) func() error {
		return func() error {
			_, err := core.IPSViewCtx(context.Background(), w.view, w.policy, core.IPSOptions{})
			return err
		}
	},
	"dr": func(w *workloadData, _ Config) func() error {
		return func() error {
			model := core.FitTableView(w.view)
			_, err := core.DoublyRobustViewCtx(context.Background(), w.view, w.policy, model, core.DROptions{})
			return err
		}
	},
	"bootstrap": func(w *workloadData, cfg Config) func() error {
		return func() error {
			_, _, err := core.BootstrapDRViewSeededStatsCtx(context.Background(), w.view, w.policy, core.DROptions{},
				cfg.Seed, cfg.BootstrapResamples, 0.95)
			return err
		}
	},
	// The events cells price the wide-event journal on the request hot
	// path: dr_events_on runs DR through a live journal (begin,
	// per-phase timing, regime annotation, finish/commit), dr_events_off
	// runs the identical instrumentation against a nil journal — the
	// disabled path drevald takes with journalling off. The pair is the
	// bench-guard evidence that one event per request stays in budget.
	"dr_events_on": func(w *workloadData, cfg Config) func() error {
		j := wideevent.NewJournal(wideevent.Options{Capacity: 1024, SampleRate: 1, Seed: uint64(cfg.Seed)})
		return drEventsCell(w, j)
	},
	"dr_events_off": func(w *workloadData, _ Config) func() error {
		return drEventsCell(w, nil)
	},
}
