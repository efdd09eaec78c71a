package core

import (
	"errors"
	"math"
	"testing"

	"drnet/internal/mathx"
)

func TestCrossFitDRMatchesDRWithFixedModel(t *testing.T) {
	// When the fitter ignores its input (returns a fixed model), the
	// cross-fit estimate must equal plain DR up to fold arithmetic.
	b := newTestBandit(61, 0.1)
	tr, _ := collectBanditTrace(b, 1000, 0.5)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	fixed := func(Trace[float64, int]) (RewardModel[float64, int], error) { return model, nil }
	cf, err := crossFitOf(tr, np, fixed, 2, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := drOf(tr, np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf.Value-dr.Value) > 1e-9 {
		t.Fatalf("cross-fit %g != DR %g with a fixed model", cf.Value, dr.Value)
	}
	if cf.N != dr.N {
		t.Fatalf("N mismatch %d vs %d", cf.N, dr.N)
	}
}

func TestCrossFitDRAvoidsMemorizationBias(t *testing.T) {
	// A memorizing model (exact lookup of logged rewards) zeroes the DR
	// residuals: plain DR degenerates to the biased DM. Cross-fitting
	// restores the correction because the out-of-fold model cannot
	// memorize the evaluated records.
	np := banditNewPolicy(0.1)
	var naiveErrs, cfErrs []float64
	for run := 0; run < 25; run++ {
		b := newTestBandit(int64(700+run), 0.1)
		tr, ctxs := collectBanditTrace(b, 600, 0.6)
		truth := TrueValue(ctxs, np, b.trueReward)

		memorize := func(fit Trace[float64, int]) (RewardModel[float64, int], error) {
			// Lookup table keyed by exact context; unseen contexts get
			// a heavily biased constant.
			lut := make(map[float64]map[int]float64)
			for _, rec := range fit {
				if lut[rec.Context] == nil {
					lut[rec.Context] = make(map[int]float64)
				}
				lut[rec.Context][rec.Decision] = rec.Reward
			}
			return RewardFunc[float64, int](func(c float64, d int) float64 {
				if m, ok := lut[c]; ok {
					if v, ok := m[d]; ok {
						return v
					}
				}
				return -5 // grossly biased fallback
			}), nil
		}
		// Plain DR with the full-trace memorizer.
		fullModel, _ := memorize(tr)
		naive, err := drOf(tr, np, fullModel, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		cf, err := crossFitOf(tr, np, memorize, 2, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		naiveErrs = append(naiveErrs, math.Abs(naive.Value-truth))
		cfErrs = append(cfErrs, math.Abs(cf.Value-truth))
	}
	if mathx.Mean(cfErrs) >= mathx.Mean(naiveErrs) {
		t.Fatalf("cross-fit error %g should beat memorizing DR error %g",
			mathx.Mean(cfErrs), mathx.Mean(naiveErrs))
	}
}

func TestCrossFitDRErrors(t *testing.T) {
	np := banditNewPolicy(0.1)
	ok := func(Trace[float64, int]) (RewardModel[float64, int], error) {
		return ConstantModel[float64, int]{}, nil
	}
	if _, err := crossFitOf(nil, np, ok, 2, DROptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	tr := Trace[float64, int]{{Context: 0.1, Decision: 0, Reward: 1, Propensity: 1}}
	if _, err := crossFitOf(tr, np, ok, 1, DROptions{}); err == nil {
		t.Fatal("folds < 2 should fail")
	}
	failing := func(Trace[float64, int]) (RewardModel[float64, int], error) {
		return nil, errors.New("boom")
	}
	tr2 := Trace[float64, int]{
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 1},
		{Context: 0.2, Decision: 0, Reward: 1, Propensity: 1},
	}
	if _, err := crossFitOf(tr2, np, failing, 2, DROptions{}); err == nil {
		t.Fatal("fitter error should propagate")
	}
	bad := Trace[float64, int]{{Context: 0.1, Decision: 0, Reward: 1, Propensity: 0}}
	if _, err := crossFitOf(bad, np, ok, 2, DROptions{}); err == nil {
		t.Fatal("invalid propensity should fail")
	}
}

func TestCrossFitDRFoldsCappedAtN(t *testing.T) {
	b := newTestBandit(62, 0)
	tr, _ := collectBanditTrace(b, 3, 0.5)
	np := banditNewPolicy(0.2)
	fixed := func(Trace[float64, int]) (RewardModel[float64, int], error) {
		return RewardFunc[float64, int](b.trueReward), nil
	}
	if _, err := crossFitOf(tr, np, fixed, 50, DROptions{}); err != nil {
		t.Fatal(err)
	}
}
