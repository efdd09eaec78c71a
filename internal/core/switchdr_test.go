package core

import (
	"errors"
	"math"
	"testing"

	"drnet/internal/mathx"
)

func TestSwitchDREqualsDRWithHugeTau(t *testing.T) {
	b := newTestBandit(71, 0.1)
	tr, _ := collectBanditTrace(b, 800, 0.4)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	sw, err := switchOf(tr, np, model, SwitchOptions{Tau: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := drOf(tr, np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Value-dr.Value) > 1e-12 {
		t.Fatalf("switchOf(tau=inf) %g != DR %g", sw.Value, dr.Value)
	}
}

func TestSwitchDREqualsDMWithTinyTau(t *testing.T) {
	b := newTestBandit(72, 0.1)
	tr, _ := collectBanditTrace(b, 400, 0.4)
	np := banditNewPolicy(0.2)
	model := ConstantModel[float64, int]{Value: 3}
	sw, err := switchOf(tr, np, model, SwitchOptions{Tau: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := dmOf(tr, np, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Value-dm.Value) > 1e-12 {
		t.Fatalf("switchOf(tau~0) %g != DM %g", sw.Value, dm.Value)
	}
}

func TestSwitchDRVarianceBetweenDMAndDR(t *testing.T) {
	// With a decent model and low-randomness logging, SwitchDR's
	// variance should sit below plain DR's.
	np := banditNewPolicy(0.05)
	model := RewardFunc[float64, int](func(c float64, d int) float64 {
		return c*float64(d+1) + 0.15
	})
	var drVals, swVals []float64
	for run := 0; run < 40; run++ {
		b := newTestBandit(int64(900+run), 0.3)
		tr, _ := collectBanditTrace(b, 300, 0.06)
		dr, err := drOf(tr, np, model, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := switchOf(tr, np, model, SwitchOptions{Tau: 5})
		if err != nil {
			t.Fatal(err)
		}
		drVals = append(drVals, dr.Value)
		swVals = append(swVals, sw.Value)
	}
	if mathx.Variance(swVals) >= mathx.Variance(drVals) {
		t.Fatalf("SwitchDR variance %g should be below DR %g in the low-randomness regime",
			mathx.Variance(swVals), mathx.Variance(drVals))
	}
}

func TestSwitchDRDefaultTau(t *testing.T) {
	b := newTestBandit(73, 0.1)
	tr, _ := collectBanditTrace(b, 500, 0.2)
	np := banditNewPolicy(0.1)
	sw, err := switchOf(tr, np, RewardFunc[float64, int](b.trueReward), SwitchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.N != 500 {
		t.Fatalf("N = %d", sw.N)
	}
}

func TestSwitchDRErrors(t *testing.T) {
	np := banditNewPolicy(0.1)
	model := ConstantModel[float64, int]{}
	if _, err := switchOf(Trace[float64, int]{}, np, model, SwitchOptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	bad := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: 0}}
	if _, err := switchOf(bad, np, model, SwitchOptions{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// streamDR feeds tr record by record through a ViewBuilder into a
// StreamEval and returns its DR estimate.
func streamDR(tr Trace[float64, int], np Policy[float64, int], model RewardModel[float64, int]) (Estimate, error) {
	b := NewViewBuilder[float64, int]()
	for _, rec := range tr {
		if err := b.Append(rec); err != nil {
			return Estimate{}, err
		}
	}
	s := NewStreamEval(np, model, StreamOptions{})
	if err := s.Apply(b.Snapshot(), 0); err != nil {
		return Estimate{}, err
	}
	est, err := s.Estimates()
	return est.DR, err
}

func TestStreamingDRMatchesBatch(t *testing.T) {
	b := newTestBandit(74, 0.1)
	tr, _ := collectBanditTrace(b, 700, 0.4)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	got, err := streamDR(tr, np, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drOf(tr, np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("streaming %g != batch %g", got.Value, want.Value)
	}
	if math.Abs(got.StdErr-want.StdErr) > 1e-9 {
		t.Fatalf("streaming stderr %g != batch %g", got.StdErr, want.StdErr)
	}
	if math.Abs(got.ESS-want.ESS) > 1e-6 {
		t.Fatalf("streaming ESS %g != batch %g", got.ESS, want.ESS)
	}
	if got.N != want.N || got.N != len(tr) {
		t.Fatal("record accounting mismatch")
	}
}

func TestStreamingDRRejectsBadRecords(t *testing.T) {
	np := banditNewPolicy(0.2)
	b := NewViewBuilder[float64, int]()
	if err := b.Append(Record[float64, int]{Propensity: 0}); err == nil {
		t.Fatal("expected rejection")
	}
	if b.Len() != 0 {
		t.Fatal("rejected record was appended")
	}
	s := NewStreamEval[float64, int](np, ConstantModel[float64, int]{}, StreamOptions{})
	if err := s.Apply(b.Snapshot(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimates(); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace before any accepted record")
	}
	// A bad policy distribution makes DR refuse to answer.
	bad := FuncPolicy[float64, int](func(float64) []Weighted[int] {
		return []Weighted[int]{{Decision: 0, Prob: 0.2}}
	})
	if _, err := streamDR(Trace[float64, int]{{Propensity: 0.5}}, bad, ConstantModel[float64, int]{}); err == nil {
		t.Fatal("expected distribution rejection")
	}
}

func TestStreamingDRIncremental(t *testing.T) {
	// The estimate must be queryable mid-stream, equal the batch
	// estimate on each prefix, and converge.
	b := newTestBandit(75, 0.05)
	tr, ctxs := collectBanditTrace(b, 2000, 0.5)
	np := banditNewPolicy(0.2)
	model := RewardFunc[float64, int](b.trueReward)
	truth := TrueValue(ctxs, np, b.trueReward)
	vb := NewViewBuilder[float64, int]()
	s := NewStreamEval(np, model, StreamOptions{})
	var errs []float64
	for _, cut := range []int{100, 2000} {
		for _, rec := range tr[s.N():cut] {
			if err := vb.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Apply(vb.Snapshot(), s.N()); err != nil {
			t.Fatal(err)
		}
		est, err := s.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		want, err := drOf(tr[:cut], np, model, DROptions{})
		if err != nil || est.DR.Value != want.Value {
			t.Fatalf("prefix %d: streamed %g != batch %g (%v)", cut, est.DR.Value, want.Value, err)
		}
		errs = append(errs, math.Abs(est.DR.Value-truth))
	}
	if errs[1] > errs[0]+0.02 {
		t.Fatalf("estimate did not improve with data: |err| %g -> %g", errs[0], errs[1])
	}
}
