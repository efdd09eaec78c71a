package core

import (
	"context"
	"math"
	"testing"

	"drnet/internal/mathx"
)

// Failure-injection tests: adversarial traces and models must degrade
// into errors or finite estimates — never panics or silent NaNs.

func TestEstimatorsSurviveExtremeRewardOutliers(t *testing.T) {
	b := newTestBandit(501, 0.1)
	tr, _ := collectBanditTrace(b, 300, 0.5)
	// Inject a handful of absurd outliers (a broken collector).
	tr[10].Reward = 1e12
	tr[20].Reward = -1e12
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	for name, f := range map[string]func() (Estimate, error){
		"DM":  func() (Estimate, error) { return dmOf(tr, np, model) },
		"IPS": func() (Estimate, error) { return ipsOf(tr, np, IPSOptions{}) },
		"DR":  func() (Estimate, error) { return drOf(tr, np, model, DROptions{}) },
		"SW":  func() (Estimate, error) { return switchOf(tr, np, model, SwitchOptions{}) },
	} {
		est, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(est.Value) || math.IsInf(est.Value, 0) {
			t.Fatalf("%s produced non-finite value %g", name, est.Value)
		}
	}
	// Self-normalized IPS stays inside the reward range even with the
	// outliers present (they bound the range).
	sn, err := ipsOf(tr, np, IPSOptions{SelfNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Value > 1e12 || sn.Value < -1e12 {
		t.Fatalf("SNIPS left the reward range: %g", sn.Value)
	}
}

func TestEstimatorsSurvivePropensityFloor(t *testing.T) {
	// All propensities at the validity boundary (tiny but legal):
	// weights explode but everything stays finite and diagnostics flag
	// the problem.
	b := newTestBandit(502, 0.1)
	tr, _ := collectBanditTrace(b, 200, 0.5)
	for i := range tr {
		tr[i].Propensity = 1e-9
	}
	np := banditNewPolicy(0.2)
	est, err := ipsOf(tr, np, IPSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est.Value) || math.IsInf(est.Value, 0) {
		t.Fatalf("non-finite value %g", est.Value)
	}
	if est.MaxWeight < 1e6 {
		t.Fatalf("expected exploded weights, got max %g", est.MaxWeight)
	}
	diag, err := diagnoseOf(tr, np)
	if err != nil {
		t.Fatal(err)
	}
	if diag.ESS > float64(diag.N)/2 {
		t.Log("warning: ESS did not flag the floor propensities (weights are uniform, so Kish ESS is high — MaxWeight is the signal here)")
	}
	if diag.MinPropensity != 1e-9 {
		t.Fatalf("MinPropensity = %g", diag.MinPropensity)
	}
}

func TestNaNModelIsSurfacedNotHidden(t *testing.T) {
	// A reward model that returns NaN (e.g. divide-by-zero in a
	// downstream predictor) must surface as a NaN estimate the caller
	// can detect — silent replacement would hide the bug.
	b := newTestBandit(503, 0.1)
	tr, _ := collectBanditTrace(b, 50, 0.5)
	np := banditNewPolicy(0.2)
	bad := RewardFunc[float64, int](func(float64, int) float64 { return math.NaN() })
	est, err := dmOf(tr, np, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(est.Value) {
		t.Fatalf("NaN model should produce a NaN estimate, got %g", est.Value)
	}
}

func TestCrossFitSurvivesPathologicalFoldOrder(t *testing.T) {
	// Adversarial record order: all of one decision first. Interleaved
	// fold assignment must still give both folds both decisions.
	b := newTestBandit(504, 0.1)
	tr, _ := collectBanditTrace(b, 400, 0.8)
	// Sort: decision 0 records first.
	var sorted Trace[float64, int]
	for _, rec := range tr {
		if rec.Decision == 0 {
			sorted = append(sorted, rec)
		}
	}
	for _, rec := range tr {
		if rec.Decision != 0 {
			sorted = append(sorted, rec)
		}
	}
	np := banditNewPolicy(0.2)
	fit := func(part Trace[float64, int]) (RewardModel[float64, int], error) {
		return fitTable(part, func(c float64, d int) string {
			return string(rune('0' + d))
		}), nil
	}
	est, err := crossFitOf(sorted, np, fit, 2, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est.Value) {
		t.Fatal("NaN estimate")
	}
}

func TestReplaySurvivesAdversarialHistoryPolicy(t *testing.T) {
	// A history policy that returns an invalid distribution must error,
	// not panic.
	b := newTestBandit(505, 0.1)
	tr, _ := collectBanditTrace(b, 50, 0.5)
	rng := mathx.NewRNG(1)
	bad := HistoryFuncPolicy[float64, int](func(Trace[float64, int], float64) []Weighted[int] {
		return []Weighted[int]{{Decision: 0, Prob: 0.3}} // sums to 0.3
	})
	if _, err := ReplayDRCtx[float64, int](bg, tr, bad, ConstantModel[float64, int]{}, rng); err == nil {
		t.Fatal("invalid distribution should error")
	}
}

func TestBootstrapSurvivesDegenerateTrace(t *testing.T) {
	// A single-record trace: bootstrap resamples are all copies; the CI
	// must collapse rather than error.
	tr := Trace[float64, int]{{Context: 0.5, Decision: 2, Reward: 1.5, Propensity: 0.5}}
	np := banditNewPolicy(0.2)
	ci, _, err := Bootstrap(bg, mustView(t, tr), func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return IPSViewCtx(ctx, rv, np, IPSOptions{})
	}, 2, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Hi-ci.Lo > 1e-12 {
		t.Fatalf("degenerate trace should give a (numerically) point interval, got [%g, %g]", ci.Lo, ci.Hi)
	}
}

func TestSelectBestSurvivesTiedCandidates(t *testing.T) {
	// Identical candidates: ranking must be stable and complete.
	b := newTestBandit(506, 0.1)
	tr, _ := collectBanditTrace(b, 300, 0.5)
	same := banditNewPolicy(0.2)
	cands := []Candidate[float64, int]{
		{Name: "a", Policy: same},
		{Name: "b", Policy: same},
	}
	ranked, err := SelectBest(bg, mustView(t, tr), RewardFunc[float64, int](b.trueReward), cands, 3, SelectOptions{Bootstrap: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("kept %d", len(ranked))
	}
	if ranked[0].Candidate.Name != "a" {
		t.Fatal("stable sort violated for tied candidates")
	}
	if !Overlaps(ranked) {
		t.Fatal("identical candidates must overlap")
	}
}
