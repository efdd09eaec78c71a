package core

import (
	"context"
	"errors"
	"fmt"

	"drnet/internal/mathx"
)

// FitPropensityModelCtx estimates µ_old(d|c) from the trace with
// multinomial logistic regression (one-vs-rest, normalized), for traces
// whose contexts carry numeric features. It covers the case the paper
// flags — "in practice, it may be necessary to estimate this
// probability from the trace" — when contexts are too high-dimensional
// for the grouped empirical estimator (EstimatePropensitiesCtx).
//
// featurize maps a context to its numeric features; floor bounds the
// estimated propensities away from zero so importance weights stay
// finite. The fitted propensities are written into the trace records,
// and the per-decision models are returned so callers can inspect or
// reuse them. ctx is checked before each per-decision logistic fit (the
// expensive unit) and once per chunk of records in the scan and
// normalization passes; a cancelled ctx returns ctx's error, and the
// trace may then be partially normalized.
func FitPropensityModelCtx[C any, D comparable](ctx context.Context, t Trace[C, D], featurize func(C) []float64, lambda, floor float64) (map[D]*mathx.LogisticModel, error) {
	if len(t) == 0 {
		return nil, ErrEmptyTrace
	}
	if floor <= 0 {
		floor = 1e-3
	}
	if lambda < 0 {
		return nil, errors.New("core: negative regularization")
	}
	// Enumerate decisions.
	decisions := make([]D, 0, 8)
	seen := make(map[D]bool)
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !seen[rec.Decision] {
			seen[rec.Decision] = true
			decisions = append(decisions, rec.Decision)
		}
	}
	if len(decisions) < 2 {
		return nil, errors.New("core: trace contains a single decision; propensities are trivially 1")
	}
	// Build the design matrix once.
	x := make([][]float64, len(t))
	for i, rec := range t {
		x[i] = featurize(rec.Context)
	}
	// One-vs-rest logistic models.
	models := make(map[D]*mathx.LogisticModel, len(decisions))
	for _, d := range decisions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		y := make([]float64, len(t))
		for i, rec := range t {
			if rec.Decision == d {
				y[i] = 1
			}
		}
		m, err := mathx.FitLogistic(x, y, mathx.LogisticOptions{Lambda: lambda})
		if err != nil {
			return nil, fmt.Errorf("core: fitting propensity model for decision %v: %w", d, err)
		}
		models[d] = m
	}
	// Normalize the one-vs-rest scores into propensities per record.
	for i := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		total := 0.0
		scores := make(map[D]float64, len(decisions))
		for _, d := range decisions {
			s := models[d].Predict(x[i])
			scores[d] = s
			total += s
		}
		p := scores[t[i].Decision]
		if total > 0 {
			p /= total
		}
		t[i].Propensity = mathx.Clamp(p, floor, 1)
	}
	return models, nil
}
