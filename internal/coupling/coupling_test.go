package coupling

import (
	"context"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func initScenario(t *testing.T, seed int64) (*Scenario, *mathx.RNG) {
	t.Helper()
	s := DefaultScenario()
	rng := mathx.NewRNG(seed)
	if err := s.Init(rng); err != nil {
		t.Fatal(err)
	}
	return s, rng
}

func TestInitValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	cases := []func(*Scenario){
		func(s *Scenario) { s.Servers = s.Servers[:1] },
		func(s *Scenario) { s.HoldTicks = 0 },
		func(s *Scenario) { s.PhaseSwitch = 0 },
		func(s *Scenario) { s.ShiftTarget = 9 },
		func(s *Scenario) { s.ShiftProb = 1 },
		func(s *Scenario) { s.NumClasses = 0 },
	}
	for i, mutate := range cases {
		s := DefaultScenario()
		mutate(s)
		if err := s.Init(rng); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestRunProducesSelfInducedShift(t *testing.T) {
	s, rng := initScenario(t, 2)
	steps, err := s.Run(4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4000 {
		t.Fatalf("got %d steps", len(steps))
	}
	if err := Trace(steps).Validate(); err != nil {
		t.Fatal(err)
	}
	// Server 0's load proxy must be clearly higher in phase 2.
	var lo, hi []float64
	for i, st := range steps {
		if i < 1800 {
			lo = append(lo, st.Loads[0])
		}
		if i > 2200 {
			hi = append(hi, st.Loads[0])
		}
	}
	if mathx.Mean(hi) < mathx.Mean(lo)*1.4 {
		t.Fatalf("phase 2 load %.1f not clearly above phase 1 %.1f", mathx.Mean(hi), mathx.Mean(lo))
	}
	// And its observed rewards must be lower in phase 2.
	var loR, hiR []float64
	for i, st := range steps {
		if st.Rec.Decision != 0 {
			continue
		}
		if i < 1800 {
			loR = append(loR, st.Rec.Reward)
		} else if i > 2200 {
			hiR = append(hiR, st.Rec.Reward)
		}
	}
	if mathx.Mean(hiR) >= mathx.Mean(loR) {
		t.Fatal("phase-2 rewards on the overloaded server should drop")
	}
}

func TestRunValidation(t *testing.T) {
	s, rng := initScenario(t, 3)
	if _, err := s.Run(0, rng); err == nil {
		t.Fatal("zero arrivals should fail")
	}
	un := DefaultScenario()
	if _, err := un.Run(5, rng); err == nil {
		t.Fatal("uninitialized should fail")
	}
}

func TestUninitializedPanics(t *testing.T) {
	s := DefaultScenario()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.RewardAtLoads(0, 0, []float64{0, 0})
}

func TestSteadyStateLoads(t *testing.T) {
	s, _ := initScenario(t, 4)
	loads := s.Phase1Loads()
	want := float64(s.HoldTicks) / float64(len(s.Servers))
	for i, l := range loads {
		if l != want {
			t.Fatalf("load[%d] = %g, want %g", i, l, want)
		}
	}
}

func TestDetectStatesFindsPhaseBoundary(t *testing.T) {
	s, rng := initScenario(t, 5)
	steps, err := s.Run(3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := DetectStates(steps, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(steps) {
		t.Fatal("labels length mismatch")
	}
	// Early and late steps must be in different segments.
	if labels[100] == labels[2900] {
		t.Fatal("no state change detected across the phase boundary")
	}
	// Errors.
	if _, err := DetectStates(nil, 0, 0); err == nil {
		t.Fatal("empty steps should fail")
	}
	if _, err := DetectStates(steps, 9, 0); err == nil {
		t.Fatal("bad server should fail")
	}
}

func TestMatchStatePicksLowLoadSegment(t *testing.T) {
	s, rng := initScenario(t, 6)
	steps, err := s.Run(3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := DetectStates(steps, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := s.Phase1Loads()[0]
	matched, err := MatchState(steps, labels, 0, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The matched trace should come from the first phase (low load).
	if len(matched) < 500 || len(matched) > 2200 {
		t.Fatalf("matched %d records", len(matched))
	}
	if _, err := MatchState(steps, labels[:5], 0, target, 0); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := MatchState(nil, nil, 0, target, 0); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestStateMatchedDRBeatsNaive(t *testing.T) {
	// E5: estimating the new policy's value in the low-load state. The
	// naive DR pools phase-2 records whose rewards were degraded by the
	// logging policy's own traffic shift; state matching removes them.
	var naiveErrs, matchedErrs []float64
	for run := 0; run < 12; run++ {
		s, rng := initScenario(t, int64(100+run))
		steps, err := s.Run(3000, rng)
		if err != nil {
			t.Fatal(err)
		}
		np := s.NewPolicy()
		truth := s.GroundTruth(steps, np, s.Phase1Loads())
		full := Trace(steps)
		model, err := core.FitTableCtx(context.Background(), full, func(c, v int) string {
			return string(rune('0'+c)) + "/" + string(rune('0'+v))
		})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := core.DoublyRobustViewCtx(context.Background(), viewOf(t, full), np, model, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		labels, err := DetectStates(steps, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		matchedTrace, err := MatchState(steps, labels, 0, s.Phase1Loads()[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		mmodel, err := core.FitTableCtx(context.Background(), matchedTrace, func(c, v int) string {
			return string(rune('0'+c)) + "/" + string(rune('0'+v))
		})
		if err != nil {
			t.Fatal(err)
		}
		matched, err := core.DoublyRobustViewCtx(context.Background(), viewOf(t, matchedTrace), np, mmodel, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		naiveErrs = append(naiveErrs, mathx.RelativeError(truth, naive.Value))
		matchedErrs = append(matchedErrs, mathx.RelativeError(truth, matched.Value))
	}
	nMean, mMean := mathx.Mean(naiveErrs), mathx.Mean(matchedErrs)
	t.Logf("naive DR error %.4f, state-matched DR error %.4f", nMean, mMean)
	if mMean >= nMean {
		t.Fatalf("state matching should reduce error: %g vs %g", mMean, nMean)
	}
}

// viewOf builds the columnar view the core estimators read.
func viewOf[C comparable, D comparable](t *testing.T, tr core.Trace[C, D]) *core.TraceView[C, D] {
	t.Helper()
	v, err := core.NewTraceViewCtx(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
