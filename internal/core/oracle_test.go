package core

import (
	"errors"
	"fmt"
	"math"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// This file is the reference oracle: every estimator written as the
// plain sequential per-record loop over a materialized Trace, with no
// interning, tables, pools or worker pool. The equivalence, property,
// determinism and parallel suites compare the view estimators against
// it bit for bit (values, weights, errors and error text).

func refArgmax[D comparable](dist []Weighted[D]) D {
	best := dist[0]
	for _, w := range dist[1:] {
		if w.Prob > best.Prob {
			best = w
		}
	}
	return best.Decision
}

// refDMPart is Σ_d µ(d|c)·r̂(c,d) over the distribution in entry order,
// skipping zero-probability entries.
func refDMPart[C any, D comparable](dist []Weighted[D], c C, model RewardModel[C, D]) float64 {
	dm := 0.0
	for _, w := range dist {
		if w.Prob == 0 {
			continue
		}
		dm += w.Prob * model.Predict(c, w.Decision)
	}
	return dm
}

func refDM[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D], model RewardModel[C, D]) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	contrib := make([]float64, len(t))
	for i, rec := range t {
		dist := newPolicy.Distribution(rec.Context)
		if err := ValidateDistribution(dist); err != nil {
			return Estimate{}, fmt.Errorf("record %d: %w", i, err)
		}
		contrib[i] = refDMPart(dist, rec.Context, model)
	}
	return summarizeContributions(contrib), nil
}

// refWeight is µ_new(d|c)/µ_old(d|c), clipped when clip > 0.
func refWeight[C any, D comparable](newPolicy Policy[C, D], rec Record[C, D], clip float64) float64 {
	w := Prob(newPolicy, rec.Context, rec.Decision) / rec.Propensity
	if clip > 0 && w > clip {
		w = clip
	}
	return w
}

func refIPS[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D], opts IPSOptions) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return Estimate{}, err
	}
	weights := make([]float64, len(t))
	contrib := make([]float64, len(t))
	for i, rec := range t {
		weights[i] = refWeight(newPolicy, rec, opts.Clip)
		contrib[i] = weights[i] * rec.Reward
	}
	var est Estimate
	if opts.SelfNormalize {
		est.Value = mathx.WeightedMean(t.Rewards(), weights)
		if wbar := mathx.Mean(weights); wbar > 0 {
			infl := make([]float64, len(t))
			for i := range t {
				infl[i] = weights[i] * (t[i].Reward - est.Value) / wbar
			}
			est.StdErr = mathx.StdDev(infl) / math.Sqrt(float64(len(t)))
		}
		est.N = len(t)
	} else {
		est = summarizeContributions(contrib)
	}
	est.ESS = mathx.EffectiveSampleSize(weights)
	est.MaxWeight = maxWeight(weights)
	return est, nil
}

func refDR[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts DROptions) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return Estimate{}, err
	}
	n := len(t)
	dmPart, weights, resid := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, rec := range t {
		dist := newPolicy.Distribution(rec.Context)
		if err := ValidateDistribution(dist); err != nil {
			return Estimate{}, fmt.Errorf("record %d: %w", i, err)
		}
		dmPart[i] = refDMPart(dist, rec.Context, model)
		weights[i] = refWeight(newPolicy, rec, opts.Clip)
		resid[i] = rec.Reward - model.Predict(rec.Context, rec.Decision)
	}
	norm := float64(n)
	if opts.SelfNormalize {
		sumW := 0.0
		for _, w := range weights {
			sumW += w
		}
		if sumW > 0 {
			norm = sumW
		}
	}
	contrib := make([]float64, n)
	for i := range contrib {
		if opts.SelfNormalize {
			contrib[i] = dmPart[i] + float64(n)/norm*weights[i]*resid[i]
		} else {
			contrib[i] = dmPart[i] + weights[i]*resid[i]
		}
	}
	est := summarizeContributions(contrib)
	est.ESS = mathx.EffectiveSampleSize(weights)
	est.MaxWeight = maxWeight(weights)
	return est, nil
}

func refSwitchDR[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts SwitchOptions) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return Estimate{}, err
	}
	weights := make([]float64, len(t))
	for i, rec := range t {
		weights[i] = refWeight(newPolicy, rec, 0)
	}
	tau := opts.Tau
	if tau <= 0 {
		tau = math.Max(1, mathx.Quantile(weights, 0.95))
	}
	contrib := make([]float64, len(t))
	var kept []float64
	for i, rec := range t {
		dist := newPolicy.Distribution(rec.Context)
		if err := ValidateDistribution(dist); err != nil {
			return Estimate{}, err
		}
		contrib[i] = refDMPart(dist, rec.Context, model)
		if weights[i] <= tau {
			contrib[i] += weights[i] * (rec.Reward - model.Predict(rec.Context, rec.Decision))
			kept = append(kept, weights[i])
		}
	}
	est := summarizeContributions(contrib)
	if len(kept) > 0 {
		est.ESS = mathx.EffectiveSampleSize(kept)
	}
	est.MaxWeight = maxWeight(kept)
	return est, nil
}

func refMatched[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D]) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	var matched []float64
	for _, rec := range t {
		if refArgmax(newPolicy.Distribution(rec.Context)) == rec.Decision {
			matched = append(matched, rec.Reward)
		}
	}
	if len(matched) == 0 {
		return Estimate{}, ErrNoMatches
	}
	return summarizeContributions(matched), nil
}

func refDiagnose[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D]) (Diagnostics, error) {
	if len(t) == 0 {
		return Diagnostics{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return Diagnostics{}, err
	}
	d := Diagnostics{N: len(t), MinPropensity: t[0].Propensity}
	weights := make([]float64, len(t))
	matches := 0
	for i, rec := range t {
		dist := newPolicy.Distribution(rec.Context)
		var pNew float64
		for _, w := range dist {
			if w.Decision == rec.Decision {
				pNew = w.Prob // the last matching entry wins
			}
		}
		weights[i] = pNew / rec.Propensity
		if weights[i] == 0 {
			d.ZeroSupport++
		}
		if weights[i] > d.MaxWeight {
			d.MaxWeight = weights[i]
		}
		if refArgmax(dist) == rec.Decision {
			matches++
		}
		if rec.Propensity < d.MinPropensity {
			d.MinPropensity = rec.Propensity
		}
	}
	d.ESS = mathx.EffectiveSampleSize(weights)
	d.MatchRate = float64(matches) / float64(len(t))
	d.MeanWeight = mathx.Mean(weights)
	return d, nil
}

func refCrossFitDR[C any, D comparable](t Trace[C, D], newPolicy Policy[C, D], fit ModelFitter[C, D], folds int, opts DROptions) (Estimate, error) {
	if len(t) == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if folds < 2 {
		return Estimate{}, errors.New("core: cross-fitting needs at least 2 folds")
	}
	folds = min(folds, len(t))
	if err := t.Validate(); err != nil {
		return Estimate{}, err
	}
	var total, weightSum, varSum float64
	agg := Estimate{}
	for f := 0; f < folds; f++ {
		var fitPart, evalPart Trace[C, D]
		for i, rec := range t {
			if i%folds == f {
				evalPart = append(evalPart, rec)
			} else {
				fitPart = append(fitPart, rec)
			}
		}
		model, err := fit(fitPart)
		if err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d model fit: %w", f, err)
		}
		est, err := refDR(evalPart, newPolicy, model, opts)
		if err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d: %w", f, err)
		}
		w := float64(est.N)
		total += est.Value * w
		weightSum += w
		agg.N += est.N
		agg.ESS += est.ESS
		if est.MaxWeight > agg.MaxWeight {
			agg.MaxWeight = est.MaxWeight
		}
		varSum += est.StdErr * est.StdErr * w * w
	}
	agg.Value = total / weightSum
	agg.StdErr = math.Sqrt(varSum) / weightSum
	return agg, nil
}

// refBootstrap is the seeded percentile bootstrap run sequentially:
// resample i copies len(t) records drawn from ShardedRNG shard i.
func refBootstrap[C any, D comparable](t Trace[C, D], est func(Trace[C, D]) (Estimate, error), seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	if len(t) == 0 {
		return Interval{}, BootstrapStats{}, ErrEmptyTrace
	}
	if b <= 0 {
		b = 200
	}
	if level <= 0 || level >= 1 {
		return Interval{}, BootstrapStats{}, fmt.Errorf("core: confidence level %g out of (0,1)", level)
	}
	sh := parallel.NewShardedRNG(seed)
	stats := BootstrapStats{Resamples: b}
	var values []float64
	var lastErr error
	for i := 0; i < b; i++ {
		rng := sh.Shard(i)
		resample := make(Trace[C, D], len(t))
		for j := range resample {
			resample[j] = t[rng.Intn(len(t))]
		}
		e, err := est(resample)
		if err != nil {
			lastErr = err
			stats.Skipped++
			continue
		}
		values = append(values, e.Value)
	}
	if len(values) == 0 {
		return Interval{}, stats, fmt.Errorf("core: all bootstrap resamples failed: %w", lastErr)
	}
	alpha := (1 - level) / 2
	return Interval{Lo: mathx.Quantile(values, alpha), Hi: mathx.Quantile(values, 1-alpha), Level: level}, stats, nil
}
