package core

import (
	"context"
	"fmt"
	"math"
)

// TraceView is a struct-of-arrays projection of a Trace: the float
// columns (rewards, propensities) are contiguous, and the generic
// context/decision values are interned into small-integer codes with a
// dictionary back to the original values. It is built once from a
// Trace and then shared, read-only, by every estimator evaluation —
// the estimators compute from the columns with pooled scratch buffers
// instead of walking []Record.
//
// A view may also be a resample or a fold of another view: it then
// shares the parent's columns and dictionaries and reads only the
// record multiset rows (indices into the parent, duplicates allowed),
// in that order. Bootstrap and CrossFitDRViewCtx hand such views to
// the same estimator bodies that serve full views, so an estimate on
// a resample is the estimate on the materialized resample without
// copying a record.
//
// Invariants established at construction and relied on by the hot
// path:
//   - every record passed Trace.Validate (propensity in (0,1], finite
//     reward), so the estimators skip re-validation;
//   - contexts/decisions dictionaries are in first-occurrence order,
//     so per-unique-context work observes values in the same order a
//     sequential record scan would;
//   - len(contexts)·len(decisions) tables fit in memory (the estimators
//     build per-(context,decision) tables; interning is designed for
//     traces whose context/decision spaces are much smaller than n,
//     which is the regime of every workload in this repository).
//
// Equivalence contract: the estimators give the same bits as a
// sequential per-record evaluation of the materialized trace provided
// the policy and reward model are pure functions that do not
// distinguish between contexts the view interned together (for
// NewTraceViewCtx: contexts that compare equal; for
// NewTraceViewKeyedCtx: contexts with equal keys). The test suite's
// reference oracle (oracle_test.go) locks this down for every
// estimator at worker counts 1, 2 and 8.
type TraceView[C any, D comparable] struct {
	rewards      []float64
	propensities []float64
	ctxCodes     []int32
	decCodes     []int32

	// rows, when non-nil, is the record multiset this view reads
	// (indices into the columns above); nil means every record in
	// order.
	rows []int

	// contexts and decisions are the interning dictionaries, in
	// first-occurrence order; ctxFirst[u] is the record index at which
	// context code u first appeared (used to report validation errors
	// at the same record index as a sequential scan).
	contexts  []C
	ctxFirst  []int32
	decisions []D
	decIndex  map[D]int32
	// lookup resolves an arbitrary context value to its code (closure
	// over the constructor's interning map, so the comparable and
	// keyed constructors share one struct layout).
	lookup func(C) (int32, bool)
}

// NewTraceViewCtx builds a columnar view of t, interning contexts by
// value (C must be comparable). It validates exactly like
// Trace.Validate and fails with the same error on the same record;
// ctx is checked once per chunk of records during the build pass.
func NewTraceViewCtx[C comparable, D comparable](ctx context.Context, t Trace[C, D]) (*TraceView[C, D], error) {
	index := make(map[C]int32)
	intern := func(c C) (int32, bool) {
		if u, ok := index[c]; ok {
			return u, false
		}
		u := int32(len(index))
		index[c] = u
		return u, true
	}
	lookup := func(c C) (int32, bool) {
		u, ok := index[c]
		return u, ok
	}
	return buildView(ctx, t, intern, lookup)
}

// NewTraceViewKeyedCtx builds a columnar view of t for context types
// that are not comparable (feature vectors, slices): contexts are
// interned by the caller-supplied key. The key must be injective up to
// behavioral equivalence — contexts mapping to the same key must be
// indistinguishable to every policy and reward model evaluated against
// the view, or the estimators lose their bit-equivalence with a
// per-record evaluation. ctx is checked as in NewTraceViewCtx.
func NewTraceViewKeyedCtx[C any, D comparable](ctx context.Context, t Trace[C, D], key func(C) string) (*TraceView[C, D], error) {
	index := make(map[string]int32)
	intern := func(c C) (int32, bool) {
		k := key(c)
		if u, ok := index[k]; ok {
			return u, false
		}
		u := int32(len(index))
		index[k] = u
		return u, true
	}
	lookup := func(c C) (int32, bool) {
		u, ok := index[key(c)]
		return u, ok
	}
	return buildView(ctx, t, intern, lookup)
}

// buildView is the shared constructor body: one pass that validates
// (with Trace.Validate's exact semantics and error text), interns, and
// fills the columns.
func buildView[C any, D comparable](ctx context.Context, t Trace[C, D], intern func(C) (int32, bool), lookup func(C) (int32, bool)) (*TraceView[C, D], error) {
	if int64(len(t)) > math.MaxInt32 {
		return nil, fmt.Errorf("core: trace length %d exceeds TraceView capacity", len(t))
	}
	v := &TraceView[C, D]{
		rewards:      make([]float64, len(t)),
		propensities: make([]float64, len(t)),
		ctxCodes:     make([]int32, len(t)),
		decCodes:     make([]int32, len(t)),
		decIndex:     make(map[D]int32),
		lookup:       lookup,
	}
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The negated comparison also rejects NaN propensities, exactly
		// as in Trace.Validate.
		if !(rec.Propensity > 0) || rec.Propensity > 1 {
			return nil, fmt.Errorf("core: record %d has propensity %g, want (0,1]", i, rec.Propensity)
		}
		if math.IsNaN(rec.Reward) {
			return nil, fmt.Errorf("core: record %d has NaN reward", i)
		}
		if math.IsInf(rec.Reward, 0) {
			return nil, fmt.Errorf("core: record %d has infinite reward", i)
		}
		u, isNew := intern(rec.Context)
		if isNew {
			v.contexts = append(v.contexts, rec.Context)
			v.ctxFirst = append(v.ctxFirst, int32(i))
		}
		k, ok := v.decIndex[rec.Decision]
		if !ok {
			k = int32(len(v.decisions))
			v.decisions = append(v.decisions, rec.Decision)
			v.decIndex[rec.Decision] = k
		}
		v.ctxCodes[i] = u
		v.decCodes[i] = k
		v.rewards[i] = rec.Reward
		v.propensities[i] = rec.Propensity
	}
	return v, nil
}

// row maps position i of the view to its record index in the columns.
func (v *TraceView[C, D]) row(i int) int {
	if v.rows == nil {
		return i
	}
	return v.rows[i]
}

// Len returns the number of records in the view.
func (v *TraceView[C, D]) Len() int {
	if v.rows != nil {
		return len(v.rows)
	}
	return len(v.rewards)
}

// NumContexts returns the number of distinct interned contexts.
func (v *TraceView[C, D]) NumContexts() int { return len(v.contexts) }

// NumDecisions returns the number of distinct logged decisions.
func (v *TraceView[C, D]) NumDecisions() int { return len(v.decisions) }

// At reconstructs record i. The context is the dictionary
// representative (the first record that interned to the same code).
func (v *TraceView[C, D]) At(i int) Record[C, D] {
	i = v.row(i)
	return Record[C, D]{
		Context:    v.contexts[v.ctxCodes[i]],
		Decision:   v.decisions[v.decCodes[i]],
		Reward:     v.rewards[i],
		Propensity: v.propensities[i],
	}
}

// RewardAt returns record i's reward without reconstructing the record.
func (v *TraceView[C, D]) RewardAt(i int) float64 { return v.rewards[v.row(i)] }

// PropensityAt returns record i's logged propensity.
func (v *TraceView[C, D]) PropensityAt(i int) float64 { return v.propensities[v.row(i)] }

// ContextCode returns record i's interned context code, in
// [0, NumContexts). Codes are assigned in first-occurrence order.
func (v *TraceView[C, D]) ContextCode(i int) int { return int(v.ctxCodes[v.row(i)]) }

// DecisionCode returns record i's interned decision code, in
// [0, NumDecisions).
func (v *TraceView[C, D]) DecisionCode(i int) int { return int(v.decCodes[v.row(i)]) }

// ContextValue returns the dictionary representative of context code u
// (the context of the first record that interned to u).
func (v *TraceView[C, D]) ContextValue(u int) C { return v.contexts[u] }

// DecisionValue returns the decision for dictionary code k.
func (v *TraceView[C, D]) DecisionValue(k int) D { return v.decisions[k] }

// DecisionIndex resolves a decision value to its dictionary code,
// reporting false for decisions never logged in the trace.
func (v *TraceView[C, D]) DecisionIndex(d D) (int, bool) {
	k, ok := v.decIndex[d]
	return int(k), ok
}

// Materialize reconstructs the full trace from the columns and
// dictionaries (the interning round-trip the fuzz target checks).
//
//lint:allow ctxdiscipline test/debug round-trip helper, never on the request path
func (v *TraceView[C, D]) Materialize() Trace[C, D] {
	out := make(Trace[C, D], v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// Rewards returns the view's rewards in order.
func (v *TraceView[C, D]) Rewards() []float64 {
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = v.rewards[v.row(i)]
	}
	return out
}

// MeanReward returns the average logged reward, bit-identical to
// Trace.MeanReward (same in-order summation).
func (v *TraceView[C, D]) MeanReward() float64 {
	n := v.Len()
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += v.rewards[v.row(i)]
	}
	return s / float64(n)
}

// UniqueContexts returns a copy of the context dictionary in
// first-occurrence order.
func (v *TraceView[C, D]) UniqueContexts() []C {
	out := make([]C, len(v.contexts))
	copy(out, v.contexts)
	return out
}

// UniqueDecisions returns a copy of the decision dictionary in
// first-occurrence order.
func (v *TraceView[C, D]) UniqueDecisions() []D {
	out := make([]D, len(v.decisions))
	copy(out, v.decisions)
	return out
}
