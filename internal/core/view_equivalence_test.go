package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"drnet/internal/mathx"
)

// quantizedTrace is determinismTrace with contexts snapped to a small
// grid, so interning actually collapses records (U ≪ n) and the view's
// per-unique-context tables are exercised on the sharing path rather
// than degenerating to one context per record.
func quantizedTrace(n int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	tr, np, model := determinismTrace(n)
	out := make(Trace[float64, int], len(tr))
	copy(out, tr)
	for i := range out {
		out[i].Context = float64(int(out[i].Context*16)) / 16
	}
	return out, np, model
}

// equivalenceCases are the trace shapes every bit-equivalence test
// sweeps: near-unique contexts (dictionary ≈ n) and heavily shared
// contexts (dictionary ≪ n).
func equivalenceCases(n int) map[string]func(int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	return map[string]func(int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]){
		"unique":    determinismTrace,
		"quantized": quantizedTrace,
	}
}

// equivalencePaths pairs a trace's full view and a resample view of it
// with the materialized records each one reads, so a test can hold
// both estimator paths to the oracle.
func equivalencePaths(tb testing.TB, tr Trace[float64, int]) []struct {
	name string
	tr   Trace[float64, int]
	v    *TraceView[float64, int]
} {
	v := mustView(tb, tr)
	rv := resampleView(v, testResample(len(tr), 5))
	return []struct {
		name string
		tr   Trace[float64, int]
		v    *TraceView[float64, int]
	}{{"full", tr, v}, {"resample", rv.Materialize(), rv}}
}

// TestViewEstimatorsBitIdenticalToSlice is the core equivalence
// contract: every estimator returns the oracle's Estimate — all float
// fields bit-for-bit — on the full view and on a resample view,
// sequentially and chunked over 1, 2 and 8 workers.
func TestViewEstimatorsBitIdenticalToSlice(t *testing.T) {
	const n = 5000
	for shape, mk := range equivalenceCases(n) {
		tr, np, model := mk(n)
		type variant struct {
			name string
			ref  func(Trace[float64, int]) (Estimate, error)
			view func(*TraceView[float64, int]) (Estimate, error)
		}
		variants := []variant{
			{"DM",
				func(tr Trace[float64, int]) (Estimate, error) { return refDM(tr, np, model) },
				func(v *TraceView[float64, int]) (Estimate, error) { return DirectMethodViewCtx(bg, v, np, model) }},
			{"IPS",
				func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{}) },
				func(v *TraceView[float64, int]) (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{}) }},
			{"IPS clip",
				func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{Clip: 3}) },
				func(v *TraceView[float64, int]) (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{Clip: 3}) }},
			{"SNIPS",
				func(tr Trace[float64, int]) (Estimate, error) { return refIPS(tr, np, IPSOptions{SelfNormalize: true}) },
				func(v *TraceView[float64, int]) (Estimate, error) {
					return IPSViewCtx(bg, v, np, IPSOptions{SelfNormalize: true})
				}},
			{"DR",
				func(tr Trace[float64, int]) (Estimate, error) { return refDR(tr, np, model, DROptions{}) },
				func(v *TraceView[float64, int]) (Estimate, error) {
					return DoublyRobustViewCtx(bg, v, np, model, DROptions{})
				}},
			{"DR clip+norm",
				func(tr Trace[float64, int]) (Estimate, error) {
					return refDR(tr, np, model, DROptions{Clip: 3, SelfNormalize: true})
				},
				func(v *TraceView[float64, int]) (Estimate, error) {
					return DoublyRobustViewCtx(bg, v, np, model, DROptions{Clip: 3, SelfNormalize: true})
				}},
			{"SwitchDR default tau",
				func(tr Trace[float64, int]) (Estimate, error) { return refSwitchDR(tr, np, model, SwitchOptions{}) },
				func(v *TraceView[float64, int]) (Estimate, error) {
					return SwitchDRViewCtx(bg, v, np, model, SwitchOptions{})
				}},
			{"SwitchDR tau=2",
				func(tr Trace[float64, int]) (Estimate, error) {
					return refSwitchDR(tr, np, model, SwitchOptions{Tau: 2})
				},
				func(v *TraceView[float64, int]) (Estimate, error) {
					return SwitchDRViewCtx(bg, v, np, model, SwitchOptions{Tau: 2})
				}},
			{"MatchedRewards",
				func(tr Trace[float64, int]) (Estimate, error) { return refMatched(tr, np) },
				func(v *TraceView[float64, int]) (Estimate, error) { return MatchedRewardsViewCtx(bg, v, np) }},
		}
		for _, path := range equivalencePaths(t, tr) {
			for _, vr := range variants {
				want, err := vr.ref(path.tr)
				if err != nil {
					t.Fatalf("%s/%s/%s oracle: %v", shape, path.name, vr.name, err)
				}
				// Sequential view path, then chunked at each worker count.
				for _, w := range append([]int{0}, workerCounts...) {
					threshold := 64
					if w == 0 {
						w, threshold = 1, n+1
					}
					withParallelism(t, w, threshold, func() {
						got, err := vr.view(path.v)
						if err != nil {
							t.Fatalf("%s/%s/%s workers=%d: %v", shape, path.name, vr.name, w, err)
						}
						if got != want {
							t.Fatalf("%s/%s/%s workers=%d: %+v != oracle %+v", shape, path.name, vr.name, w, got, want)
						}
					})
				}
			}
		}
	}
}

// TestViewDiagnoseBitIdentical asserts DiagnoseViewCtx reproduces the
// oracle field-for-field on both trace shapes and both view paths.
func TestViewDiagnoseBitIdentical(t *testing.T) {
	const n = 5000
	for shape, mk := range equivalenceCases(n) {
		tr, np, _ := mk(n)
		for _, path := range equivalencePaths(t, tr) {
			want, err := refDiagnose(path.tr, np)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", shape, path.name, err)
			}
			got, err := DiagnoseViewCtx(bg, path.v, np)
			if err != nil {
				t.Fatalf("%s/%s: DiagnoseViewCtx: %v", shape, path.name, err)
			}
			if got != want {
				t.Fatalf("%s/%s: DiagnoseViewCtx %+v != oracle %+v", shape, path.name, got, want)
			}
		}
	}
}

// TestFitTableViewMatchesFitTable asserts the columnar table model is
// the string-keyed table model: same predictions on every logged pair, same
// default, and bit-identical DM/DR estimates when plugged in.
func TestFitTableViewMatchesFitTable(t *testing.T) {
	const n = 3000
	tr, np, _ := quantizedTrace(n)
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	key := func(c float64, d int) string {
		return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d)
	}
	tableModel := fitTable(tr, key)
	viewModel := FitTableView(v)
	for i, rec := range tr {
		if got, want := viewModel.Predict(rec.Context, rec.Decision), tableModel.Predict(rec.Context, rec.Decision); got != want {
			t.Fatalf("record %d: view predict %v != table predict %v", i, got, want)
		}
	}
	// Unseen pairs fall back to the same default.
	if got, want := viewModel.Predict(-123.5, 0), tableModel.Predict(-123.5, 0); got != want {
		t.Fatalf("default: view %v != table %v", got, want)
	}
	wantDM, err := refDM(tr, np, tableModel)
	if err != nil {
		t.Fatalf("DirectMethod: %v", err)
	}
	gotDM, err := DirectMethodViewCtx(bg, v, np, viewModel)
	if err != nil {
		t.Fatalf("DirectMethodView: %v", err)
	}
	if gotDM != wantDM {
		t.Fatalf("DM with fit model: view %+v != oracle %+v", gotDM, wantDM)
	}
	wantDR, err := refDR(tr, np, tableModel, DROptions{Clip: 5})
	if err != nil {
		t.Fatalf("DoublyRobust: %v", err)
	}
	gotDR, err := DoublyRobustViewCtx(bg, v, np, viewModel, DROptions{Clip: 5})
	if err != nil {
		t.Fatalf("DoublyRobustView: %v", err)
	}
	if gotDR != wantDR {
		t.Fatalf("DR with fit model: view %+v != oracle %+v", gotDR, wantDR)
	}
}

// TestCrossFitDRViewBitIdentical asserts the cross-fitted estimator
// agrees bit-for-bit when folds are carved from the view by index
// instead of copied out as the oracle does.
func TestCrossFitDRViewBitIdentical(t *testing.T) {
	const n = 3000
	tr, np, _ := quantizedTrace(n)
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	fit := func(part Trace[float64, int]) (RewardModel[float64, int], error) {
		return fitTable(part, func(c float64, d int) string {
			return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d)
		}), nil
	}
	for _, folds := range []int{2, 3} {
		want, err := refCrossFitDR(tr, np, fit, folds, DROptions{Clip: 4})
		if err != nil {
			t.Fatalf("CrossFitDR folds=%d: %v", folds, err)
		}
		for _, w := range workerCounts {
			withParallelism(t, w, 64, func() {
				got, err := CrossFitDRViewCtx(bg, v, np, fit, folds, DROptions{Clip: 4})
				if err != nil {
					t.Fatalf("CrossFitDRViewCtx folds=%d workers=%d: %v", folds, w, err)
				}
				if got != want {
					t.Fatalf("CrossFitDRViewCtx folds=%d workers=%d: %+v != %+v", folds, w, got, want)
				}
			})
		}
	}
}

// TestViewEstimatorErrorsMatchSlice asserts the view path fails with
// the exact error string of the oracle's sequential scan — including the
// first-failing-record index — for every estimator that validates
// distributions.
func TestViewEstimatorErrorsMatchSlice(t *testing.T) {
	const n = 2000
	tr, _, model := determinismTrace(n)
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	bad := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x > 0.5 {
			return []Weighted[int]{{Decision: 0, Prob: 0.7}, {Decision: 1, Prob: 0.7}}
		}
		return []Weighted[int]{{Decision: 0, Prob: 1}, {Decision: 1, Prob: 0}, {Decision: 2, Prob: 0}}
	})
	type variant struct {
		name string
		ref  func() error
		view func() error
	}
	variants := []variant{
		{"DM",
			func() error { _, err := refDM(tr, bad, model); return err },
			func() error { _, err := DirectMethodViewCtx(bg, v, bad, model); return err }},
		{"DR",
			func() error { _, err := refDR(tr, bad, model, DROptions{}); return err },
			func() error { _, err := DoublyRobustViewCtx(bg, v, bad, model, DROptions{}); return err }},
		{"SwitchDR",
			func() error { _, err := refSwitchDR(tr, bad, model, SwitchOptions{}); return err },
			func() error { _, err := SwitchDRViewCtx(bg, v, bad, model, SwitchOptions{}); return err }},
	}
	for _, vr := range variants {
		var want string
		withParallelism(t, 1, n+1, func() {
			err := vr.ref()
			if err == nil {
				t.Fatalf("%s oracle: expected error", vr.name)
			}
			want = err.Error()
		})
		for _, w := range workerCounts {
			withParallelism(t, w, 64, func() {
				err := vr.view()
				if err == nil {
					t.Fatalf("%s view workers=%d: expected error", vr.name, w)
				}
				if err.Error() != want {
					t.Fatalf("%s view workers=%d: error %q != oracle %q", vr.name, w, err.Error(), want)
				}
			})
		}
	}
}

// TestBootstrapViewMatchesBootstrap runs the seeded bootstrap with DM,
// SNIPS and clipped DR estimators: index draws into resample views
// consume each shard exactly as the oracle's record draws do, so the
// intervals and stats must be bit-identical.
func TestBootstrapViewMatchesBootstrap(t *testing.T) {
	const n = 800
	tr, np, model := quantizedTrace(n)
	v := mustView(t, tr)
	cases := []struct {
		name string
		ref  func(Trace[float64, int]) (Estimate, error)
		est  ViewEstimator[float64, int]
	}{
		{"DM", func(t Trace[float64, int]) (Estimate, error) { return refDM(t, np, model) },
			func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
				return DirectMethodViewCtx(ctx, rv, np, model)
			}},
		{"SNIPS", func(t Trace[float64, int]) (Estimate, error) { return refIPS(t, np, IPSOptions{SelfNormalize: true}) },
			func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
				return IPSViewCtx(ctx, rv, np, IPSOptions{SelfNormalize: true})
			}},
		{"DR clip", func(t Trace[float64, int]) (Estimate, error) { return refDR(t, np, model, DROptions{Clip: 5}) },
			func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
				return DoublyRobustViewCtx(ctx, rv, np, model, DROptions{Clip: 5})
			}},
	}
	for _, c := range cases {
		want, wantStats, err := refBootstrap(tr, c.ref, 42, 60, 0.9)
		if err != nil {
			t.Fatalf("%s oracle: %v", c.name, err)
		}
		got, stats, err := Bootstrap(bg, v, c.est, 42, 60, 0.9)
		if err != nil {
			t.Fatalf("%s Bootstrap: %v", c.name, err)
		}
		if got != want || stats != wantStats {
			t.Fatalf("%s: Bootstrap %+v/%+v != oracle %+v/%+v", c.name, got, stats, want, wantStats)
		}
	}
}

// TestBootstrapViewSeededBitIdentical asserts the seeded, sharded
// bootstrap produces the oracle's intervals and skip counts at every
// worker count, with the per-resample estimator itself on the pool
// path (resample i is pinned to shard i on both paths).
func TestBootstrapViewSeededBitIdentical(t *testing.T) {
	const (
		n     = 1200
		seed  = 99
		b     = 150
		level = 0.95
	)
	tr, np, model := quantizedTrace(n)
	v := mustView(t, tr)
	wantIv, wantStats, err := refBootstrap(tr, func(t Trace[float64, int]) (Estimate, error) {
		return refDR(t, np, model, DROptions{Clip: 5})
	}, seed, b, level)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	est := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return DoublyRobustViewCtx(ctx, rv, np, model, DROptions{Clip: 5})
	}
	for _, w := range workerCounts {
		withParallelism(t, w, 64, func() {
			gotIv, gotStats, err := Bootstrap(bg, v, est, seed, b, level)
			if err != nil {
				t.Fatalf("Bootstrap workers=%d: %v", w, err)
			}
			if gotIv != wantIv || gotStats != wantStats {
				t.Fatalf("workers=%d: view (%+v, %+v) != oracle (%+v, %+v)", w, gotIv, gotStats, wantIv, wantStats)
			}
		})
	}
}

// TestBootstrapDRViewSeededMatchesRefitClosure pins the packaged
// refit-DR bootstrap (running sufficient statistics over index draws)
// to the naive closure it replaces — FitTable + DR per resample, both
// in the oracle and as a generic Bootstrap over FitTableViewCtx +
// DoublyRobustViewCtx. Same seeds, bit-identical interval and stats, at
// every worker count.
func TestBootstrapDRViewSeededMatchesRefitClosure(t *testing.T) {
	const (
		n     = 1000
		seed  = 7
		b     = 120
		level = 0.9
	)
	for _, opts := range []DROptions{{}, {Clip: 5}, {Clip: 5, SelfNormalize: true}} {
		opts := opts
		tr, np, _ := quantizedTrace(n)
		v, err := NewTraceViewCtx(bg, tr)
		if err != nil {
			t.Fatalf("NewTraceViewCtx: %v", err)
		}
		key := func(c float64, d int) string {
			return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d)
		}
		refEst := func(t Trace[float64, int]) (Estimate, error) {
			m := fitTable(t, key)
			return refDR(t, np, m, opts)
		}
		wantIv, wantStats, err := refBootstrap(tr, refEst, seed, b, level)
		if err != nil {
			t.Fatalf("opts=%+v oracle: %v", opts, err)
		}
		refit := func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
			m, err := FitTableViewCtx(ctx, rv)
			if err != nil {
				return Estimate{}, err
			}
			return DoublyRobustViewCtx(ctx, rv, np, m, opts)
		}
		for _, w := range workerCounts {
			withParallelism(t, w, 64, func() {
				gotIv, gotStats, err := BootstrapDRViewSeededStatsCtx(bg, v, np, opts, seed, b, level)
				if err != nil {
					t.Fatalf("opts=%+v workers=%d: %v", opts, w, err)
				}
				if gotIv != wantIv || gotStats != wantStats {
					t.Fatalf("opts=%+v workers=%d: view (%+v, %+v) != oracle (%+v, %+v)",
						opts, w, gotIv, gotStats, wantIv, wantStats)
				}
				genIv, genStats, err := Bootstrap(bg, v, refit, seed, b, level)
				if err != nil || genIv != wantIv || genStats != wantStats {
					t.Fatalf("opts=%+v workers=%d: generic refit (%+v, %+v, %v) != oracle (%+v, %+v)",
						opts, w, genIv, genStats, err, wantIv, wantStats)
				}
			})
		}
	}
}

// TestBootstrapViewAllFailMatchesSlice asserts the all-resamples-failed
// error carries the same wrapped message on both paths.
func TestBootstrapViewAllFailMatchesSlice(t *testing.T) {
	const n = 300
	tr, _, _ := determinismTrace(n)
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	failRef := func(Trace[float64, int]) (Estimate, error) {
		return Estimate{}, fmt.Errorf("synthetic failure")
	}
	failView := func(context.Context, *TraceView[float64, int]) (Estimate, error) {
		return Estimate{}, fmt.Errorf("synthetic failure")
	}
	_, _, errRef := refBootstrap(tr, failRef, 5, 20, 0.9)
	_, _, errView := Bootstrap(bg, v, failView, 5, 20, 0.9)
	if errRef == nil || errView == nil {
		t.Fatalf("expected both paths to fail: oracle=%v view=%v", errRef, errView)
	}
	if errRef.Error() != errView.Error() {
		t.Fatalf("error mismatch: oracle %q view %q", errRef.Error(), errView.Error())
	}
}

// vecCtx is a deliberately non-comparable context (slice field) for the
// keyed-view tests.
type vecCtx struct {
	xs []float64
}

func vecKey(c vecCtx) string {
	s := ""
	for _, x := range c.xs {
		s += strconv.FormatFloat(x, 'g', -1, 64) + ","
	}
	return s
}

// TestKeyedViewBitIdenticalToSlice covers NewTraceViewKeyed: a
// non-comparable context type interned by key must still reproduce the
// oracle's estimates bit-for-bit.
func TestKeyedViewBitIdenticalToSlice(t *testing.T) {
	const n = 2500
	rng := mathx.NewRNG(4321)
	old := EpsilonGreedyPolicy[vecCtx, int]{
		Base:      func(vecCtx) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]vecCtx, n)
	for i := range ctxs {
		// Snap to a grid so keys collide and interning shares contexts.
		ctxs[i] = vecCtx{xs: []float64{float64(rng.Intn(8)) / 8, float64(rng.Intn(4)) / 4}}
	}
	reward := func(c vecCtx, d int) float64 { return c.xs[0]*float64(d+1) + c.xs[1] }
	tr := CollectTrace(ctxs, old, func(c vecCtx, d int) float64 {
		return reward(c, d) + rng.Normal(0, 0.2)
	}, rng)
	np := EpsilonGreedyPolicy[vecCtx, int]{
		Base:      func(vecCtx) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	model := RewardFunc[vecCtx, int](func(c vecCtx, d int) float64 { return reward(c, d) + 0.1 })
	v, err := NewTraceViewKeyedCtx(bg, tr, vecKey)
	if err != nil {
		t.Fatalf("NewTraceViewKeyedCtx: %v", err)
	}
	if v.NumContexts() >= n/2 {
		t.Fatalf("keyed interning did not share contexts: %d unique of %d", v.NumContexts(), n)
	}
	type variant struct {
		name string
		ref  func() (Estimate, error)
		view func() (Estimate, error)
	}
	variants := []variant{
		{"DM",
			func() (Estimate, error) { return refDM(tr, np, model) },
			func() (Estimate, error) { return DirectMethodViewCtx(bg, v, np, model) }},
		{"SNIPS",
			func() (Estimate, error) { return refIPS(tr, np, IPSOptions{SelfNormalize: true}) },
			func() (Estimate, error) { return IPSViewCtx(bg, v, np, IPSOptions{SelfNormalize: true}) }},
		{"DR",
			func() (Estimate, error) { return refDR(tr, np, model, DROptions{Clip: 4}) },
			func() (Estimate, error) { return DoublyRobustViewCtx(bg, v, np, model, DROptions{Clip: 4}) }},
	}
	for _, vr := range variants {
		want, err := vr.ref()
		if err != nil {
			t.Fatalf("%s oracle: %v", vr.name, err)
		}
		for _, w := range workerCounts {
			withParallelism(t, w, 64, func() {
				got, err := vr.view()
				if err != nil {
					t.Fatalf("%s view workers=%d: %v", vr.name, w, err)
				}
				if got != want {
					t.Fatalf("%s view workers=%d: %+v != oracle %+v", vr.name, w, got, want)
				}
			})
		}
	}
	// FitTableView with the keyed view matches FitTable with a key
	// that composes the context key with the decision.
	tableModel := fitTable(tr, func(c vecCtx, d int) string { return vecKey(c) + "|" + strconv.Itoa(d) })
	viewModel := FitTableView(v)
	for i, rec := range tr {
		if got, want := viewModel.Predict(rec.Context, rec.Decision), tableModel.Predict(rec.Context, rec.Decision); got != want {
			t.Fatalf("record %d: keyed view predict %v != table %v", i, got, want)
		}
	}
}

// TestViewCtxVariantsHonorCancellation asserts the Ctx entry points
// observe an already-cancelled context instead of computing.
func TestViewCtxVariantsHonorCancellation(t *testing.T) {
	const n = 1000
	tr, np, model := determinismTrace(n)
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceViewCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewTraceViewCtx(ctx, tr); err == nil {
		t.Fatal("NewTraceViewCtx: expected cancellation error")
	}
	if _, err := DirectMethodViewCtx(ctx, v, np, model); err == nil {
		t.Fatal("DirectMethodViewCtx: expected cancellation error")
	}
	if _, err := IPSViewCtx(ctx, v, np, IPSOptions{}); err == nil {
		t.Fatal("IPSViewCtx: expected cancellation error")
	}
	if _, err := DoublyRobustViewCtx(ctx, v, np, model, DROptions{}); err == nil {
		t.Fatal("DoublyRobustViewCtx: expected cancellation error")
	}
	if _, err := SwitchDRViewCtx(ctx, v, np, model, SwitchOptions{}); err == nil {
		t.Fatal("SwitchDRViewCtx: expected cancellation error")
	}
	if _, err := DiagnoseViewCtx(ctx, v, np); err == nil {
		t.Fatal("DiagnoseViewCtx: expected cancellation error")
	}
	if _, err := FitTableViewCtx(ctx, v); err == nil {
		t.Fatal("FitTableViewCtx: expected cancellation error")
	}
	if _, err := MatchedRewardsViewCtx(ctx, v, np); err == nil {
		t.Fatal("MatchedRewardsViewCtx: expected cancellation error")
	}
	if _, err := CrossFitDRViewCtx(ctx, v, np, func(Trace[float64, int]) (RewardModel[float64, int], error) {
		return model, nil
	}, 2, DROptions{}); err == nil {
		t.Fatal("CrossFitDRViewCtx: expected cancellation error")
	}
	if _, _, err := Bootstrap(ctx, v, func(ctx context.Context, rv *TraceView[float64, int]) (Estimate, error) {
		return IPSViewCtx(ctx, rv, np, IPSOptions{})
	}, 1, 10, 0.9); err == nil {
		t.Fatal("Bootstrap: expected cancellation error")
	}
	if _, _, err := BootstrapDRViewSeededStatsCtx(ctx, v, np, DROptions{}, 1, 10, 0.9); err == nil {
		t.Fatal("BootstrapDRViewSeededStatsCtx: expected cancellation error")
	}
}
