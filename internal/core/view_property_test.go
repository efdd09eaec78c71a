package core

import (
	"math"
	"testing"
	"testing/quick"

	"drnet/internal/mathx"
)

// Property: on ANY random valid trace, every view estimator agrees
// bit-for-bit with the reference oracle, on the full view and on a
// resample view. This is the equivalence contract as a property rather
// than a fixed fixture.
func TestViewSliceAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		full, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		rv := resampleView(full, testResample(len(tr), seed))
		for _, c := range []struct {
			tr Trace[float64, int]
			v  *TraceView[float64, int]
		}{{tr, full}, {rv.Materialize(), rv}} {
			tr, v := c.tr, c.v
			type pair struct {
				ref  func() (Estimate, error)
				view func() (Estimate, error)
			}
			pairs := []pair{
				{func() (Estimate, error) { return refDM(tr, np, model) },
					func() (Estimate, error) { return DirectMethodViewCtx(bg, v, np, model) }},
				{func() (Estimate, error) { return refIPS(tr, np, IPSOptions{}) },
					func() (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{}) }},
				{func() (Estimate, error) { return refIPS(tr, np, IPSOptions{Clip: 2, SelfNormalize: true}) },
					func() (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{Clip: 2, SelfNormalize: true}) }},
				{func() (Estimate, error) { return refDR(tr, np, model, DROptions{}) },
					func() (Estimate, error) { return DoublyRobustViewCtx(bg, v, np, model, DROptions{}) }},
				{func() (Estimate, error) { return refSwitchDR(tr, np, model, SwitchOptions{}) },
					func() (Estimate, error) { return SwitchDRViewCtx(bg, v, np, model, SwitchOptions{}) }},
				{func() (Estimate, error) { return refMatched(tr, np) },
					func() (Estimate, error) { return MatchedRewardsViewCtx(bg, v, np) }},
			}
			for _, p := range pairs {
				want, errS := p.ref()
				got, errV := p.view()
				if (errS == nil) != (errV == nil) {
					return false
				}
				if errS != nil {
					if errS.Error() != errV.Error() {
						return false
					}
					continue
				}
				if got != want {
					return false
				}
			}
			wantD, errS := refDiagnose(tr, np)
			gotD, errV := DiagnoseViewCtx(bg, v, np)
			if (errS == nil) != (errV == nil) || (errS == nil && gotD != wantD) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: DR over the view is affine-equivariant (transforming
// rewards and model by r ↦ a·r + b transforms the estimate
// identically).
func TestViewDRAffineEquivarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x5a5a)
		a := 0.5 + 2*rng.Float64()
		b := rng.Normal(0, 3)
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		base, err := DoublyRobustViewCtx(bg, v, np, model, DROptions{})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward = a*scaled[i].Reward + b
		}
		sv, err := NewTraceViewCtx(bg, scaled)
		if err != nil {
			return false
		}
		scaledModel := RewardFunc[float64, int](func(x float64, d int) float64 {
			return a*model.Predict(x, d) + b
		})
		got, err := DoublyRobustViewCtx(bg, sv, np, scaledModel, DROptions{})
		if err != nil {
			return false
		}
		want := a*base.Value + b
		return math.Abs(got.Value-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: view IPS is positively homogeneous in rewards.
func TestViewIPSHomogeneityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x1717)
		a := 0.25 + 3*rng.Float64()
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		base, err := IPSViewCtx(bg, v, np, IPSOptions{})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward = a * scaled[i].Reward
		}
		sv, err := NewTraceViewCtx(bg, scaled)
		if err != nil {
			return false
		}
		got, err := IPSViewCtx(bg, sv, np, IPSOptions{})
		if err != nil {
			return false
		}
		want := a * base.Value
		return math.Abs(got.Value-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: view SNIPS is invariant to uniform propensity scaling
// (scaling every propensity by the same factor cancels in the
// self-normalized ratio).
func TestViewSNIPSScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x2b2b)
		s := 0.3 + 0.7*rng.Float64() // keep scaled propensities in (0,1]
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		base, err := IPSViewCtx(bg, v, np, IPSOptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Propensity = s * scaled[i].Propensity
		}
		sv, err := NewTraceViewCtx(bg, scaled)
		if err != nil {
			return false
		}
		got, err := IPSViewCtx(bg, sv, np, IPSOptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		return math.Abs(got.Value-base.Value) < 1e-9*(1+math.Abs(base.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every view estimate on a valid random trace is finite with
// 0 < ESS ≤ N, and MatchedRewardsView stays within the observed reward
// range when it succeeds.
func TestViewEstimatesFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		checks := []func() (Estimate, error){
			func() (Estimate, error) { return DirectMethodViewCtx(bg, v, np, model) },
			func() (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{}) },
			func() (Estimate, error) { return DoublyRobustViewCtx(bg, v, np, model, DROptions{}) },
			func() (Estimate, error) { return SwitchDRViewCtx(bg, v, np, model, SwitchOptions{}) },
		}
		for _, run := range checks {
			e, err := run()
			if err != nil {
				return false
			}
			if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
				return false
			}
			if !(e.ESS > 0) || e.ESS > float64(e.N)+1e-9 {
				return false
			}
		}
		if e, err := MatchedRewardsViewCtx(bg, v, np); err == nil {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, rec := range tr {
				lo = math.Min(lo, rec.Reward)
				hi = math.Max(hi, rec.Reward)
			}
			if e.Value < lo-1e-12 || e.Value > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: interning round-trips — materializing the view reproduces
// the trace record-for-record, and dictionary sizes never exceed the
// trace length.
func TestViewMaterializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, _, _ := randomValidTrace(seed)
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			return false
		}
		if v.Len() != len(tr) || v.NumContexts() > len(tr) || v.NumDecisions() > len(tr) {
			return false
		}
		back := v.Materialize()
		if len(back) != len(tr) {
			return false
		}
		for i := range tr {
			if back[i] != tr[i] {
				return false
			}
		}
		if v.MeanReward() != tr.MeanReward() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
