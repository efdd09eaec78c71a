// Package drnet_test holds the repository-level benchmark harness: one
// benchmark per paper figure (Figure 7a/7b/7c), one per extension
// experiment (E1–E7 from DESIGN.md), ablation benches for the design
// choices DESIGN.md calls out, and micro-benchmarks of the estimators
// themselves.
//
// The figure/experiment benches report the reproduced headline metric
// (mean relative evaluation error per estimator) via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates every number in
// EXPERIMENTS.md alongside the usual time/op and allocs/op.
package drnet_test

import (
	"context"
	"fmt"
	"testing"

	"drnet/internal/abr"
	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/experiments"
	"drnet/internal/mathx"
)

// benchRuns is the number of Monte Carlo runs per benchmark iteration.
// Small enough to keep -bench fast, large enough for stable metrics;
// cmd/experiments uses the paper's full 50 runs.
const benchRuns = 10

func reportRows(b *testing.B, res experiments.Result) {
	b.Helper()
	for _, row := range res.Rows {
		metric := row.Metric
		if metric == "" {
			metric = "rel-err"
		}
		b.ReportMetric(row.Summary.Mean, sanitize(row.Label)+"/"+sanitize(metric))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', ',', '=':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFigure7a regenerates Figure 7a (trace bias: WISE vs DR).
func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7a(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkFigure7b regenerates Figure 7b (model bias: FastMPC vs DR).
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7b(benchRuns, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkFigure7c regenerates Figure 7c (variance: CFA vs DR).
func BenchmarkFigure7c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7c(benchRuns, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkSecondOrderBias regenerates E1.
func BenchmarkSecondOrderBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SecondOrderBias(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkRandomnessSweep regenerates E2.
func BenchmarkRandomnessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RandomnessSweep(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkNonStationaryReplay regenerates E3.
func BenchmarkNonStationaryReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.NonStationaryReplay(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkWorldStateCorrection regenerates E4.
func BenchmarkWorldStateCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorldStateCorrection(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkCouplingCorrection regenerates E5.
func BenchmarkCouplingCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CouplingCorrection(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkDimensionalitySweep regenerates E6.
func BenchmarkDimensionalitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DimensionalitySweep(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkRelayBias regenerates E7.
func BenchmarkRelayBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RelayBias(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkPolicySelection regenerates E8.
func BenchmarkPolicySelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PolicySelection(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkPropensityEstimation regenerates E9.
func BenchmarkPropensityEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PropensityEstimation(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkExplorationDesign regenerates E10.
func BenchmarkExplorationDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExplorationDesign(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkOnlineVsOffline regenerates E11.
func BenchmarkOnlineVsOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.OnlineVsOffline(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// BenchmarkCCReplayBias regenerates E12.
func BenchmarkCCReplayBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CCReplayBias(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, res)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (design-choice benches from DESIGN.md).

// figure7bCorpus builds a fixed ABR evaluation corpus once per bench.
func figure7bCorpus(b *testing.B) (*abr.Data, core.Policy[abr.Chunk, int], float64) {
	b.Helper()
	rng := mathx.NewRNG(99)
	s := experiments.Figure7bScenario()
	d, err := s.CollectMany(rng, 5)
	if err != nil {
		b.Fatal(err)
	}
	np := d.NewPolicy(0)
	return d, np, d.GroundTruth(np)
}

// BenchmarkAblationSelfNorm compares plain vs self-normalized DR on the
// Figure 7b corpus.
func BenchmarkAblationSelfNorm(b *testing.B) {
	d, np, truth := figure7bCorpus(b)
	model := core.RewardFunc[abr.Chunk, int](d.ModelReward)
	v := mustView(b, d.Trace)
	var plain, selfNorm float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{Clip: 8})
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{Clip: 8, SelfNormalize: true})
		if err != nil {
			b.Fatal(err)
		}
		plain, selfNorm = p.Value, s.Value
	}
	b.ReportMetric(mathx.RelativeError(truth, plain), "plain/rel-err")
	b.ReportMetric(mathx.RelativeError(truth, selfNorm), "selfnorm/rel-err")
}

// BenchmarkAblationClipping sweeps the IPS/DR weight-clipping threshold
// on the Figure 7b corpus.
func BenchmarkAblationClipping(b *testing.B) {
	d, np, truth := figure7bCorpus(b)
	model := core.RewardFunc[abr.Chunk, int](d.ModelReward)
	v := mustView(b, d.Trace)
	clips := []float64{0, 2, 5, 8, 15}
	errs := make([]float64, len(clips))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range clips {
			dr, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{Clip: c})
			if err != nil {
				b.Fatal(err)
			}
			errs[j] = mathx.RelativeError(truth, dr.Value)
		}
	}
	for j, c := range clips {
		b.ReportMetric(errs[j], sanitize("clip")+formatClip(c)+"/rel-err")
	}
}

func formatClip(c float64) string {
	switch c {
	case 0:
		return "_off"
	default:
		return "_" + string(rune('0'+int(c)/10)) + string(rune('0'+int(c)%10))
	}
}

// BenchmarkAblationSwitchVsClip compares hard weight clipping against
// the SWITCH estimator at matched thresholds on the Figure 7b corpus.
func BenchmarkAblationSwitchVsClip(b *testing.B) {
	d, np, truth := figure7bCorpus(b)
	model := core.RewardFunc[abr.Chunk, int](d.ModelReward)
	v := mustView(b, d.Trace)
	var clipErr, switchErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{Clip: 8})
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.SwitchDRViewCtx(bg, v, np, model, core.SwitchOptions{Tau: 8})
		if err != nil {
			b.Fatal(err)
		}
		clipErr = mathx.RelativeError(truth, c.Value)
		switchErr = mathx.RelativeError(truth, s.Value)
	}
	b.ReportMetric(clipErr, "clip8/rel-err")
	b.ReportMetric(switchErr, "switch8/rel-err")
}

// BenchmarkAblationKNN sweeps k in the CFA k-NN direct model.
func BenchmarkAblationKNN(b *testing.B) {
	rng := mathx.NewRNG(42)
	w := cfa.DefaultWorld()
	if err := w.Init(rng); err != nil {
		b.Fatal(err)
	}
	d, err := w.Collect(1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	np := w.NewPolicy(0.4, rng)
	truth := d.GroundTruth(np)
	ks := []int{1, 3, 5, 10}
	errs := make([]float64, len(ks))
	v, err := core.NewTraceViewKeyedCtx(bg, d.Trace, func(c cfa.Client) string { return fmt.Sprint(c.Features) })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range ks {
			fit := func(tr core.Trace[cfa.Client, cfa.Decision]) (core.RewardModel[cfa.Client, cfa.Decision], error) {
				return (&cfa.Data{Trace: tr, World: d.World}).PerDecisionKNNModel(k)
			}
			dr, err := core.CrossFitDRViewCtx(bg, v, np, fit, 2, core.DROptions{})
			if err != nil {
				b.Fatal(err)
			}
			errs[j] = mathx.RelativeError(truth, dr.Value)
		}
	}
	for j, k := range ks {
		b.ReportMetric(errs[j], "k"+string(rune('0'+k/10))+string(rune('0'+k%10))+"/rel-err")
	}
}

// ---------------------------------------------------------------------
// Estimator micro-benchmarks: records/op throughput of DM, IPS, DR and
// ReplayDR on a large synthetic bandit trace.

// bg is the context the benchmarks evaluate under.
var bg = context.Background()

// mustView builds the columnar view the estimators read, once per
// benchmark and outside the timed loop.
func mustView[C comparable, D comparable](b *testing.B, tr core.Trace[C, D]) *core.TraceView[C, D] {
	b.Helper()
	v, err := core.NewTraceViewCtx(bg, tr)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func banditTrace(b *testing.B, n int) (core.Trace[float64, int], core.Policy[float64, int], core.RewardModel[float64, int]) {
	b.Helper()
	rng := mathx.NewRNG(7)
	old := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = rng.Float64()
	}
	trueReward := func(x float64, d int) float64 { return x * float64(d+1) }
	tr := core.CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return trueReward(x, d) + rng.Normal(0, 0.2)
	}, rng)
	np := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	return tr, np, core.RewardFunc[float64, int](trueReward)
}

const microN = 100000

func BenchmarkEstimatorDM(b *testing.B) {
	tr, np, model := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DirectMethodViewCtx(bg, v, np, model); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorIPS(b *testing.B) {
	tr, np, _ := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IPSViewCtx(bg, v, np, core.IPSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorDR(b *testing.B) {
	tr, np, model := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorReplayDR(b *testing.B) {
	tr, np, model := banditTrace(b, microN)
	target := core.Stationary[float64, int]{Policy: np}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(int64(i))
		if _, err := core.ReplayDRCtx[float64, int](bg, tr, target, model, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}
