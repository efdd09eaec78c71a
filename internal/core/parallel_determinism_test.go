package core

import (
	"context"
	"strings"
	"testing"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// workerCounts are the counts the acceptance criteria require the
// determinism tests to sweep.
var workerCounts = []int{1, 2, 8}

// withParallelism runs fn with the given pool width and a low enough
// threshold that a testSizeN-record trace takes the parallel path, then
// restores both knobs.
func withParallelism(t *testing.T, workers, threshold int, fn func()) {
	t.Helper()
	oldThreshold := ParallelThreshold
	ParallelThreshold = threshold
	parallel.SetDefaultWorkers(workers)
	defer func() {
		ParallelThreshold = oldThreshold
		parallel.SetDefaultWorkers(0)
	}()
	fn()
}

func determinismTrace(n int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	rng := mathx.NewRNG(1234)
	old := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = rng.Float64()
	}
	trueReward := func(x float64, d int) float64 { return x * float64(d+1) }
	tr := CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return trueReward(x, d) + rng.Normal(0, 0.2)
	}, rng)
	np := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	// A slightly biased model so DR's correction term is non-trivial.
	model := RewardFunc[float64, int](func(x float64, d int) float64 {
		return trueReward(x, d) + 0.15
	})
	return tr, np, model
}

// TestEstimatorsParallelBitIdentical asserts that DM, IPS and DR return
// exactly the oracle's Estimate — every float field bit-for-bit —
// whether the contribution loop runs sequentially or chunked over 1, 2
// or 8 workers, on the full view and on a resample view.
func TestEstimatorsParallelBitIdentical(t *testing.T) {
	const n = 5000
	tr, np, model := determinismTrace(n)
	v := mustView(t, tr)
	idx := testResample(n, 17)
	rv := resampleView(v, idx)
	rtr := rv.Materialize()

	type variant struct {
		name string
		ref  func(Trace[float64, int]) (Estimate, error)
		run  func(*TraceView[float64, int]) (Estimate, error)
	}
	variants := []variant{
		{"DM", func(tr Trace[float64, int]) (Estimate, error) { return refDM(tr, np, model) },
			func(v *TraceView[float64, int]) (Estimate, error) { return DirectMethodViewCtx(bg, v, np, model) }},
		{"IPS", func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{}) },
			func(v *TraceView[float64, int]) (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{}) }},
		{"IPS clip", func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{Clip: 3}) },
			func(v *TraceView[float64, int]) (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{Clip: 3}) }},
		{"SNIPS", func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{SelfNormalize: true}) },
			func(v *TraceView[float64, int]) (Estimate, error) {
				return IPSViewCtx(bg, v, np, IPSOptions{SelfNormalize: true})
			}},
		{"DR", func(tr Trace[float64, int]) (Estimate, error) { return refDR(tr, np, model, DROptions{}) },
			func(v *TraceView[float64, int]) (Estimate, error) {
				return DoublyRobustViewCtx(bg, v, np, model, DROptions{})
			}},
		{"DR clip+norm", func(tr Trace[float64, int]) (Estimate, error) {
			return refDR(tr, np, model, DROptions{Clip: 3, SelfNormalize: true})
		}, func(v *TraceView[float64, int]) (Estimate, error) {
			return DoublyRobustViewCtx(bg, v, np, model, DROptions{Clip: 3, SelfNormalize: true})
		}},
	}
	for _, c := range variants {
		for _, path := range []struct {
			name string
			tr   Trace[float64, int]
			v    *TraceView[float64, int]
		}{{"full", tr, v}, {"resample", rtr, rv}} {
			want, err := c.ref(path.tr)
			if err != nil {
				t.Fatalf("%s %s oracle: %v", c.name, path.name, err)
			}
			withParallelism(t, 1, n+1, func() {
				if got, err := c.run(path.v); err != nil || got != want {
					t.Fatalf("%s %s sequential: %+v/%v != oracle %+v", c.name, path.name, got, err, want)
				}
			})
			for _, w := range workerCounts {
				withParallelism(t, w, 64, func() {
					if got, err := c.run(path.v); err != nil || got != want {
						t.Fatalf("%s %s workers=%d: %+v/%v != oracle %+v", c.name, path.name, w, got, err, want)
					}
				})
			}
		}
	}
}

// TestEstimatorErrorsDeterministicParallel asserts the parallel path
// reports the oracle's first-failing-record error.
func TestEstimatorErrorsDeterministicParallel(t *testing.T) {
	const n = 2000
	tr, _, model := determinismTrace(n)
	v := mustView(t, tr)
	// A policy whose distribution is invalid for contexts in the upper
	// half of [0,1]; the first offending record index is fixed by the
	// trace, not by scheduling.
	bad := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x > 0.5 {
			return []Weighted[int]{{Decision: 0, Prob: 0.7}, {Decision: 1, Prob: 0.7}}
		}
		return []Weighted[int]{{Decision: 0, Prob: 1}, {Decision: 1, Prob: 0}, {Decision: 2, Prob: 0}}
	})
	_, err := refDR(tr, bad, model, DROptions{})
	if err == nil {
		t.Fatal("oracle DR accepted an invalid policy")
	}
	want := err.Error()
	if !strings.Contains(want, "record ") {
		t.Fatalf("unexpected error shape: %s", want)
	}
	for _, w := range workerCounts {
		withParallelism(t, w, 64, func() {
			_, err := DoublyRobustViewCtx(bg, v, bad, model, DROptions{})
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: error %v, want %s", w, err, want)
			}
			_, err = DirectMethodViewCtx(bg, v, bad, model)
			if err == nil || err.Error() != want {
				t.Fatalf("DM workers=%d: error %v, want %s", w, err, want)
			}
		})
	}
}

// TestBootstrapSeededBitIdentical asserts the sharded bootstrap CI is a
// pure function of the seed: identical to the sequential oracle for
// worker counts 1, 2 and 8.
func TestBootstrapSeededBitIdentical(t *testing.T) {
	tr, np, model := determinismTrace(400)
	v := mustView(t, tr)
	want, _, err := refBootstrap(tr, func(tt Trace[float64, int]) (Estimate, error) {
		return refDR(tt, np, model, DROptions{})
	}, 99, 150, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if want.Lo >= want.Hi {
		t.Fatalf("degenerate interval %+v", want)
	}
	est := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return DoublyRobustViewCtx(ctx, rv, np, model, DROptions{})
	}
	for _, w := range workerCounts {
		withParallelism(t, w, 1<<30, func() {
			got, _, err := Bootstrap(bg, v, est, 99, 150, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("workers=%d: %+v != %+v", w, got, want)
			}
		})
	}
}

// TestBootstrapSeededValidation pins Bootstrap's input checks.
func TestBootstrapSeededValidation(t *testing.T) {
	tr, np, model := determinismTrace(50)
	est := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return DoublyRobustViewCtx(ctx, rv, np, model, DROptions{})
	}
	if _, _, err := Bootstrap(bg, mustView(t, Trace[float64, int]{}), est, 1, 10, 0.95); err == nil {
		t.Fatal("empty trace accepted")
	}
	v := mustView(t, tr)
	if _, _, err := Bootstrap(bg, v, est, 1, 10, 1.5); err == nil {
		t.Fatal("bad level accepted")
	}
	// An estimator that always fails must surface its error.
	alwaysFail := func(context.Context, *TraceView[float64, int]) (Estimate, error) {
		return Estimate{}, ErrNoMatches
	}
	if _, _, err := Bootstrap(bg, v, alwaysFail, 1, 10, 0.95); err == nil {
		t.Fatal("all-failing estimator accepted")
	}
}

// TestBootstrapSeededStatsSkipped asserts the skipped-resample count is
// (a) reported, (b) excluded from the interval, and (c) as deterministic
// as the interval itself — the oracle's at worker counts 1, 2 and 8.
func TestBootstrapSeededStatsSkipped(t *testing.T) {
	tr, np, model := determinismTrace(50)
	v := mustView(t, tr)
	// Fail on a deterministic property of the resample (contexts are
	// uniform on [0,1), so this rejects roughly half the 120 shard
	// streams — a known subset for any fixed seed).
	refFlaky := func(tt Trace[float64, int]) (Estimate, error) {
		if tt[0].Context > 0.5 {
			return Estimate{}, ErrNoMatches
		}
		return refDR(tt, np, model, DROptions{})
	}
	flaky := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		if rv.At(0).Context > 0.5 {
			return Estimate{}, ErrNoMatches
		}
		return DoublyRobustViewCtx(ctx, rv, np, model, DROptions{})
	}
	wantIv, want, err := refBootstrap(tr, refFlaky, 7, 120, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want.Resamples != 120 {
		t.Fatalf("Resamples = %d, want 120", want.Resamples)
	}
	if want.Skipped == 0 || want.Skipped >= want.Resamples {
		t.Fatalf("implausible Skipped = %d (flaky estimator should fail some but not all resamples)", want.Skipped)
	}
	for _, w := range workerCounts {
		withParallelism(t, w, 1<<30, func() {
			iv, stats, err := Bootstrap(bg, v, flaky, 7, 120, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if iv != wantIv || stats != want {
				t.Fatalf("workers=%d: (%+v, %+v) != (%+v, %+v)", w, iv, stats, wantIv, want)
			}
		})
	}
	// All-failing runs still report their stats.
	alwaysFail := func(context.Context, *TraceView[float64, int]) (Estimate, error) {
		return Estimate{}, ErrNoMatches
	}
	_, stats, err := Bootstrap(bg, v, alwaysFail, 1, 10, 0.95)
	if err == nil {
		t.Fatal("all-failing estimator accepted")
	}
	if stats.Skipped != 10 || stats.Resamples != 10 {
		t.Fatalf("all-failing stats = %+v", stats)
	}
}
