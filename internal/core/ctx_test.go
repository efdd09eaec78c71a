package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// ctxTestTrace builds a moderately sized randomized trace, mirroring
// the world used by the determinism tests.
func ctxTestTrace(n int) (Trace[float64, int], Policy[float64, int]) {
	rng := mathx.NewRNG(5)
	old := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = float64(rng.Intn(4))
	}
	tr := CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return x + float64(d) + rng.Normal(0, 0.05)
	}, rng)
	np := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	return tr, np
}

func decisionKey(c float64, d int) string { return string(rune('0' + d)) }

// TestEstimatorCtxVariantsMatchPlain: a live (cancellable but never
// cancelled) context must leave the pooled estimators bit-identical to
// a Background evaluation and to the oracle, on both the sequential
// and the pool path.
func TestEstimatorCtxVariantsMatchPlain(t *testing.T) {
	tr, pol := ctxTestTrace(600)
	model := fitTable(tr, decisionKey)
	v := mustView(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()
	for _, threshold := range []int{1, 100000} {
		ParallelThreshold = threshold
		wantDM, _ := refDM(tr, pol, model)
		dm1, err1 := DirectMethodViewCtx(bg, v, pol, model)
		dm2, err2 := DirectMethodViewCtx(ctx, v, pol, model)
		if err1 != nil || err2 != nil || dm1 != dm2 || dm1 != wantDM {
			t.Fatalf("threshold=%d: DM diverged: %+v/%v vs %+v/%v", threshold, dm1, err1, dm2, err2)
		}
		wantIPS, _ := refIPS(tr, pol, IPSOptions{Clip: 5})
		ips1, err1 := IPSViewCtx(bg, v, pol, IPSOptions{Clip: 5})
		ips2, err2 := IPSViewCtx(ctx, v, pol, IPSOptions{Clip: 5})
		if err1 != nil || err2 != nil || ips1 != ips2 || ips1 != wantIPS {
			t.Fatalf("threshold=%d: IPS diverged", threshold)
		}
		wantDR, _ := refDR(tr, pol, model, DROptions{})
		dr1, err1 := DoublyRobustViewCtx(bg, v, pol, model, DROptions{})
		dr2, err2 := DoublyRobustViewCtx(ctx, v, pol, model, DROptions{})
		if err1 != nil || err2 != nil || dr1 != dr2 || dr1 != wantDR {
			t.Fatalf("threshold=%d: DR diverged", threshold)
		}
		wantD, _ := refDiagnose(tr, pol)
		d1, err1 := DiagnoseViewCtx(bg, v, pol)
		d2, err2 := DiagnoseViewCtx(ctx, v, pol)
		if err1 != nil || err2 != nil || d1 != d2 || d1 != wantD {
			t.Fatalf("threshold=%d: Diagnose diverged", threshold)
		}
	}
}

// TestEstimatorCtxCancelled: a cancelled context fails every ctx-aware
// entry point with context.Canceled, on both scheduling paths.
func TestEstimatorCtxCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(600)
	model := fitTable(tr, decisionKey)
	v := mustView(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()
	for _, threshold := range []int{1, 100000} {
		ParallelThreshold = threshold
		if _, err := DirectMethodViewCtx(ctx, v, pol, model); !errors.Is(err, context.Canceled) {
			t.Fatalf("threshold=%d: DM: %v", threshold, err)
		}
		if _, err := IPSViewCtx(ctx, v, pol, IPSOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("threshold=%d: IPS: %v", threshold, err)
		}
		if _, err := DoublyRobustViewCtx(ctx, v, pol, model, DROptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("threshold=%d: DR: %v", threshold, err)
		}
		if _, err := DiagnoseViewCtx(ctx, v, pol); !errors.Is(err, context.Canceled) {
			t.Fatalf("threshold=%d: Diagnose: %v", threshold, err)
		}
	}
}

// TestBootstrapSeededStatsCtxMatchesPlain: the seeded bootstrap with a
// live context returns the oracle's interval and stats at every worker
// count.
func TestBootstrapSeededStatsCtxMatchesPlain(t *testing.T) {
	tr, pol := ctxTestTrace(300)
	v := mustView(t, tr)
	wantIv, wantStats, err := refBootstrap(tr, func(rt Trace[float64, int]) (Estimate, error) {
		return refIPS(rt, pol, IPSOptions{Clip: 10})
	}, 21, 120, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	est := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return IPSViewCtx(ctx, rv, pol, IPSOptions{Clip: 10})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer parallel.SetDefaultWorkers(0)
	for _, w := range []int{1, 2, 8} {
		parallel.SetDefaultWorkers(w)
		iv, stats, err := Bootstrap(ctx, v, est, 21, 120, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv != wantIv || stats != wantStats {
			t.Fatalf("workers=%d: bootstrap diverged: %+v/%+v vs %+v/%+v", w, iv, stats, wantIv, wantStats)
		}
	}
}

// TestBootstrapSeededStatsCtxCancelled: cancellation surfaces as the
// ctx error, not as a half-built interval.
func TestBootstrapSeededStatsCtxCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(300)
	v := mustView(t, tr)
	est := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return IPSViewCtx(ctx, rv, pol, IPSOptions{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv, stats, err := Bootstrap(ctx, v, est, 21, 120, 0.95)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if iv != (Interval{}) || stats != (BootstrapStats{}) {
		t.Fatalf("non-zero results on cancellation: %+v %+v", iv, stats)
	}
}

// TestValidateRejectsNaNAndInf pins the hardened trace validation: NaN
// propensities and infinite rewards must fail, not flow into weights.
func TestValidateRejectsNaNAndInf(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	good := Record[float64, int]{Context: 1, Decision: 0, Reward: 1, Propensity: 0.5}
	cases := []struct {
		name string
		rec  Record[float64, int]
	}{
		{"NaN propensity", Record[float64, int]{Context: 1, Decision: 0, Reward: 1, Propensity: nan}},
		{"Inf reward", Record[float64, int]{Context: 1, Decision: 0, Reward: inf, Propensity: 0.5}},
		{"-Inf reward", Record[float64, int]{Context: 1, Decision: 0, Reward: -inf, Propensity: 0.5}},
	}
	for _, c := range cases {
		tr := Trace[float64, int]{good, c.rec}
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s passed validation", c.name)
		}
	}
	if err := (Trace[float64, int]{good}).Validate(); err != nil {
		t.Fatalf("healthy record rejected: %v", err)
	}
}

// TestSequentialCtxVariantsMatchPlain: the estimators that scan records
// sequentially (checking ctx once per chunk) must match the oracle
// bit for bit under a live context.
func TestSequentialCtxVariantsMatchPlain(t *testing.T) {
	tr, pol := ctxTestTrace(500)
	v := mustView(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	key := func(c float64, d int) string { return fmt.Sprintf("%g|%d", c, d) }
	model := fitTable(tr, key)

	vm, err := FitTableViewCtx(ctx, v)
	if err != nil {
		t.Fatalf("FitTableViewCtx: %v", err)
	}
	for _, rec := range tr {
		if got, want := vm.Predict(rec.Context, rec.Decision), model.Predict(rec.Context, rec.Decision); got != want {
			t.Fatalf("FitTableViewCtx predicts %v, FitTable %v", got, want)
		}
	}
	mr1, err1 := refMatched(tr, pol)
	mr2, err2 := MatchedRewardsViewCtx(ctx, v, pol)
	if err1 != nil || err2 != nil || mr1 != mr2 {
		t.Fatalf("MatchedRewardsViewCtx diverged: %+v/%v vs %+v/%v", mr1, err1, mr2, err2)
	}
	sw1, err1 := refSwitchDR(tr, pol, model, SwitchOptions{})
	sw2, err2 := SwitchDRViewCtx(ctx, v, pol, model, SwitchOptions{})
	if err1 != nil || err2 != nil || sw1 != sw2 {
		t.Fatalf("SwitchDRViewCtx diverged: %+v/%v vs %+v/%v", sw1, err1, sw2, err2)
	}
	fit := func(ft Trace[float64, int]) (RewardModel[float64, int], error) { return fitTable(ft, key), nil }
	cf1, err1 := refCrossFitDR(tr, pol, fit, 3, DROptions{})
	cf2, err2 := CrossFitDRViewCtx(ctx, v, pol, fit, 3, DROptions{})
	if err1 != nil || err2 != nil || cf1 != cf2 {
		t.Fatalf("CrossFitDRViewCtx diverged: %+v/%v vs %+v/%v", cf1, err1, cf2, err2)
	}
}

// TestSequentialCtxVariantsCancelled: every ctx-aware entry point that
// is not covered by TestEstimatorCtxCancelled (view kernels, fitters,
// replay and the propensity helpers) fails fast with
// context.Canceled — the stride check fires on the first record, so a
// small trace suffices.
func TestSequentialCtxVariantsCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(64)
	model := fitTable(tr, decisionKey)
	v := mustView(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := FitTableViewCtx(ctx, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitTableViewCtx: %v", err)
	}
	if _, err := MatchedRewardsViewCtx(ctx, v, pol); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchedRewardsViewCtx: %v", err)
	}
	if _, err := SwitchDRViewCtx(ctx, v, pol, model, SwitchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SwitchDRViewCtx: %v", err)
	}
	fit := func(ft Trace[float64, int]) (RewardModel[float64, int], error) { return model, nil }
	if _, err := CrossFitDRViewCtx(ctx, v, pol, fit, 2, DROptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CrossFitDRViewCtx: %v", err)
	}
	if _, _, err := BootstrapDRViewSeededStatsCtx(ctx, v, pol, DROptions{}, 9, 20, 0.9); !errors.Is(err, context.Canceled) {
		t.Fatalf("BootstrapDRViewSeededStatsCtx: %v", err)
	}
	if _, err := NewTraceViewCtx(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	if _, err := FitTableCtx(ctx, tr, decisionKey); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitTableCtx: %v", err)
	}
	if _, err := ReplayDRCtx(ctx, tr, Stationary[float64, int]{Policy: pol}, model, mathx.NewRNG(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplayDRCtx: %v", err)
	}
	oldPol := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	if err := AttachPropensitiesCtx(ctx, cloneTrace(tr), oldPol); !errors.Is(err, context.Canceled) {
		t.Fatalf("AttachPropensitiesCtx: %v", err)
	}
	if err := EstimatePropensitiesCtx(ctx, cloneTrace(tr), func(c float64) string { return "g" }, 1, 1e-4); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimatePropensitiesCtx: %v", err)
	}
	if _, err := FitPropensityModelCtx(ctx, cloneTrace(tr), func(c float64) []float64 { return []float64{c} }, 0.1, 1e-3); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitPropensityModelCtx: %v", err)
	}
}

func cloneTrace(t Trace[float64, int]) Trace[float64, int] {
	return append(Trace[float64, int](nil), t...)
}
