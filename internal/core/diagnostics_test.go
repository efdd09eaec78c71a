package core

import (
	"context"
	"errors"
	"testing"
)

func TestDiagnoseIdenticalPolicies(t *testing.T) {
	b := newTestBandit(31, 0.1)
	old := banditOldPolicy(0.4)
	ctxs := b.contexts(500)
	tr := CollectTrace(ctxs, old, b.drawReward, b.rng)
	d, err := diagnoseOf(tr, old)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluating the logging policy itself: all weights are 1.
	if !almostEqual(d.MeanWeight, 1, 1e-9) || !almostEqual(d.ESS, float64(d.N), 1e-6) {
		t.Fatalf("identical policies should have unit weights: %+v", d)
	}
	if d.ZeroSupport != 0 {
		t.Fatal("no zero-support records expected")
	}
	if d.String() == "" {
		t.Fatal("empty diagnostics string")
	}
}

func TestDiagnoseDisjointPolicies(t *testing.T) {
	b := newTestBandit(32, 0.1)
	old := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 0 }}
	ctxs := b.contexts(100)
	tr := CollectTrace(ctxs, old, b.drawReward, b.rng)
	np := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 2 }}
	d, err := diagnoseOf(tr, np)
	if err != nil {
		t.Fatal(err)
	}
	if d.ZeroSupport != 100 || d.MatchRate != 0 {
		t.Fatalf("disjoint policies: %+v", d)
	}
}

func TestDiagnoseLowOverlapESS(t *testing.T) {
	b := newTestBandit(33, 0.1)
	tr, _ := collectBanditTrace(b, 400, 0.1) // mostly d=0
	np := banditNewPolicy(0.1)               // mostly d=2
	d, err := diagnoseOf(tr, np)
	if err != nil {
		t.Fatal(err)
	}
	if d.ESS > float64(d.N)/3 {
		t.Fatalf("low-overlap ESS should be small: %g of n=%d", d.ESS, d.N)
	}
	if d.MaxWeight < 5 {
		t.Fatalf("expected large max weight, got %g", d.MaxWeight)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	var empty Trace[float64, int]
	if _, err := diagnoseOf(empty, banditNewPolicy(0.1)); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	bad := Trace[float64, int]{{Context: 0, Decision: 0, Propensity: 0}}
	if _, err := diagnoseOf(bad, banditNewPolicy(0.1)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestBootstrapCoversTruth(t *testing.T) {
	b := newTestBandit(34, 0.1)
	tr, ctxs := collectBanditTrace(b, 800, 0.5)
	np := banditNewPolicy(0.2)
	truth := TrueValue(ctxs, np, b.trueReward)
	ci, _, err := Bootstrap(bg, mustView(t, tr), func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return DoublyRobustViewCtx(ctx, rv, np, RewardFunc[float64, int](b.trueReward), DROptions{})
	}, 77, 300, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo >= ci.Hi {
		t.Fatalf("degenerate interval [%g, %g]", ci.Lo, ci.Hi)
	}
	if truth < ci.Lo-0.05 || truth > ci.Hi+0.05 {
		t.Fatalf("truth %g far outside CI [%g, %g]", truth, ci.Lo, ci.Hi)
	}
}

func TestBootstrapErrors(t *testing.T) {
	empty := mustView(t, Trace[float64, int]{})
	ok := func(context.Context, *TraceView[float64, int]) (Estimate, error) { return Estimate{}, nil }
	if _, _, err := Bootstrap(bg, empty, ok, 1, 10, 0.95); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	v := mustView(t, Trace[float64, int]{{Propensity: 1}})
	if _, _, err := Bootstrap(bg, v, ok, 1, 10, 1.5); err == nil {
		t.Fatal("expected level error")
	}
	failing := func(context.Context, *TraceView[float64, int]) (Estimate, error) { return Estimate{}, ErrNoMatches }
	if _, stats, err := Bootstrap(bg, v, failing, 1, 10, 0.95); !errors.Is(err, ErrNoMatches) || stats.Skipped != 10 {
		t.Fatalf("expected all-resamples-failed error, got %v (stats %+v)", err, stats)
	}
}

func TestCollectTracePropensities(t *testing.T) {
	b := newTestBandit(35, 0)
	old := banditOldPolicy(0.3)
	ctxs := b.contexts(200)
	tr := CollectTrace(ctxs, old, b.drawReward, b.rng)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range tr {
		want := Prob(old, rec.Context, rec.Decision)
		if rec.Propensity != want {
			t.Fatalf("propensity %g, want %g", rec.Propensity, want)
		}
	}
}

func TestTrueValueEmpty(t *testing.T) {
	if TrueValue(nil, banditNewPolicy(0.1), func(float64, int) float64 { return 1 }) != 0 {
		t.Fatal("empty contexts should give 0")
	}
}
