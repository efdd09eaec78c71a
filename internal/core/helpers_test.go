package core

import (
	"context"
	"testing"

	"drnet/internal/mathx"
)

// bg is the never-cancelled context the tests evaluate under.
var bg = context.Background()

// mustView builds the comparable-context view of tr, failing the test
// on a validation error.
func mustView[C comparable, D comparable](tb testing.TB, tr Trace[C, D]) *TraceView[C, D] {
	tb.Helper()
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		tb.Fatalf("NewTraceViewCtx: %v", err)
	}
	return v
}

// The *Of helpers run a production estimator on a freshly built view of
// tr, surfacing the view's validation error as the estimator's.

func dmOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D], m RewardModel[C, D]) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return DirectMethodViewCtx(bg, v, p, m)
}

func ipsOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D], opts IPSOptions) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return IPSViewCtx(bg, v, p, opts)
}

func drOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D], m RewardModel[C, D], opts DROptions) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return DoublyRobustViewCtx(bg, v, p, m, opts)
}

func switchOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D], m RewardModel[C, D], opts SwitchOptions) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return SwitchDRViewCtx(bg, v, p, m, opts)
}

func matchedOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D]) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return MatchedRewardsViewCtx(bg, v, p)
}

func diagnoseOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D]) (Diagnostics, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Diagnostics{}, err
	}
	return DiagnoseViewCtx(bg, v, p)
}

func crossFitOf[C comparable, D comparable](tr Trace[C, D], p Policy[C, D], fit ModelFitter[C, D], folds int, opts DROptions) (Estimate, error) {
	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		return Estimate{}, err
	}
	return CrossFitDRViewCtx(bg, v, p, fit, folds, opts)
}

// testResample draws a fixed resample of n positions (with
// duplicates), as Bootstrap would from one shard.
func testResample(n int, seed int64) []int {
	rng := mathx.NewRNG(seed)
	idx := make([]int, n)
	for j := range idx {
		idx[j] = rng.Intn(n)
	}
	return idx
}

// resampleView returns the view of v reading positions idx, the shape
// Bootstrap and CrossFitDRViewCtx hand to the estimators.
func resampleView[C any, D comparable](v *TraceView[C, D], idx []int) *TraceView[C, D] {
	rows := make([]int, len(idx))
	for j, i := range idx {
		rows[j] = v.row(i)
	}
	rv := *v
	rv.rows = rows
	return &rv
}

// fitTable is FitTableCtx under a never-cancelled context.
func fitTable[C any, D comparable](tr Trace[C, D], key func(C, D) string) *TableModel[C, D] {
	m, err := FitTableCtx(bg, tr, key)
	if err != nil {
		panic(err)
	}
	return m
}
