package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"drnet/internal/mathx"
)

// This file holds the estimators. Each runs over a TraceView: the
// policy is flattened once per unique context (viewTables), the reward
// model once per (context, decision) cell (modelTable), and the
// per-record loops are array arithmetic over the view's records — all
// of them for a full view, the resampled or fold multiset for a view
// built by Bootstrap or CrossFitDRViewCtx. Every reduction runs in
// record order, so the result is bit-identical to a sequential
// per-record evaluation of the materialized trace at any worker count
// (oracle_test.go holds that reference and the equivalence suites).

// Estimate is the result of an off-policy estimator: a point estimate of
// the expected per-client reward of the new policy, plus plug-in
// uncertainty and weight diagnostics.
type Estimate struct {
	// Value is the estimated expected reward V̂(µ_new).
	Value float64
	// StdErr is the plug-in standard error: the sample standard
	// deviation of per-record contributions divided by √n.
	StdErr float64
	// N is the number of trace records used.
	N int
	// ESS is Kish's effective sample size of the importance weights
	// (equals N for DM, which uses no weights).
	ESS float64
	// MaxWeight is the largest importance weight encountered (zero for
	// DM). Large values flag poor overlap between old and new policy.
	MaxWeight float64
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d, ess=%.1f)", e.Value, e.StdErr, e.N, e.ESS)
}

// IPSOptions tunes the inverse-propensity-score estimator.
type IPSOptions struct {
	// Clip, when positive, caps each importance weight at this value
	// (truncated IPS). Clipping trades bias for variance, which matters
	// exactly in the paper's low-randomness regime (§4.1).
	Clip float64
	// SelfNormalize divides by the sum of weights instead of n (the
	// SNIPS estimator), removing sensitivity to the weight scale at the
	// cost of O(1/n) bias.
	SelfNormalize bool
}

// DROptions tunes the doubly robust estimator.
type DROptions struct {
	// Clip, when positive, caps importance weights as in IPSOptions.
	Clip float64
	// SelfNormalize normalizes the correction term by the sum of
	// weights (the SNDR / weighted DR estimator).
	SelfNormalize bool
}

// SwitchOptions configures SwitchDRViewCtx.
type SwitchOptions struct {
	// Tau is the importance-weight threshold: records whose weight
	// exceeds Tau contribute through the reward model alone; the rest
	// keep the full DR correction. Tau <= 0 selects a data-driven
	// default (the 95th percentile of the weights, at least 1).
	Tau float64
}

// Diagnostics summarizes how well a trace supports evaluating a target
// policy — the paper's "coverage and randomness" concern (§4.1) made
// quantitative. Compute it before trusting any IPS/DR estimate.
type Diagnostics struct {
	// N is the trace length.
	N int
	// ESS is the effective sample size of the importance weights.
	// ESS ≪ N means a few records dominate the estimate.
	ESS float64
	// MatchRate is the fraction of records whose logged decision is the
	// modal decision of the new policy — the coverage available to
	// matching (CFA-style) evaluators.
	MatchRate float64
	// MeanWeight is the average importance weight; it should be close
	// to 1 when propensities are calibrated.
	MeanWeight float64
	// MaxWeight is the largest importance weight.
	MaxWeight float64
	// ZeroSupport counts records where the new policy puts zero
	// probability on the logged decision (they contribute nothing to
	// IPS/DR corrections).
	ZeroSupport int
	// MinPropensity is the smallest logged propensity.
	MinPropensity float64
}

// String renders the diagnostics for operator consumption.
func (d Diagnostics) String() string {
	return fmt.Sprintf(
		"n=%d ess=%.1f match=%.1f%% w̄=%.3f wmax=%.1f zero-support=%d min-propensity=%.4f",
		d.N, d.ESS, 100*d.MatchRate, d.MeanWeight, d.MaxWeight, d.ZeroSupport, d.MinPropensity)
}

// ErrNoMatches is returned by MatchedRewardsViewCtx when the new policy
// agrees with the logged decision on zero records.
var ErrNoMatches = fmt.Errorf("core: no records match the new policy's decisions")

// ModelFitter fits a reward model on a subset of trace records. It is
// used by CrossFitDRViewCtx to keep the model independent of the
// records it corrects.
type ModelFitter[C any, D comparable] func(Trace[C, D]) (RewardModel[C, D], error)

func summarizeContributions(contrib []float64) Estimate {
	n := len(contrib)
	est := Estimate{Value: mathx.Mean(contrib), N: n}
	if n > 1 {
		est.StdErr = mathx.StdDev(contrib) / math.Sqrt(float64(n))
	}
	est.ESS = float64(n)
	return est
}

// maxWeight scans for the largest weight; a sequential post-pass so
// the parallel fill loops stay index-pure (NaN weights are skipped,
// matching an in-loop `w > maxW` comparison).
func maxWeight(ws []float64) float64 {
	maxW := 0.0
	for _, w := range ws {
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// DirectMethodViewCtx estimates V(µ_new) with a reward model only (the
// paper's DM): V̂_DM = (1/n) Σ_k Σ_d µ_new(d|c_k) · r̂(c_k, d).
//
// DM has no variance problems — it uses every record and no importance
// weights — but inherits every bias of the reward model (§2.2.1). When
// ctx ends, the per-record pass stops at the next chunk boundary and
// ctx's error is returned.
func DirectMethodViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D]) (Estimate, error) {
	if v.Len() == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	if j, err := firstInvalid(v, tb); err != nil {
		return Estimate{}, fmt.Errorf("record %d: %w", j, err)
	}
	mt := buildModelTable(v, tb, model)
	defer mt.release()
	n := v.Len()
	cp := getFloats(n)
	defer putFloats(cp)
	contrib := *cp
	err := forEachRecordCtx(ctx, n, func(lo, hi int) error {
		dmFill(v, mt, contrib, lo, hi)
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	return summarizeContributions(contrib), nil
}

// dmFill writes the direct-method contribution of v's positions
// [lo, hi).
//
//lint:hot
func dmFill[C any, D comparable](v *TraceView[C, D], mt *modelTable, contrib []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		contrib[j] = mt.dm[v.ctxCodes[v.row(j)]]
	}
}

// IPSViewCtx estimates V(µ_new) by importance-weighting observed rewards
// (the paper's model-free estimator):
//
//	V̂_IPS = (1/n) Σ_k [µ_new(d_k|c_k)/µ_old(d_k|c_k)] · r_k.
//
// It is unbiased whenever propensities are correct and positive wherever
// µ_new is, but its variance explodes when the old policy rarely takes
// decisions the new policy favours (§2.2.2). The view was validated at
// construction, so no record is re-validated.
func IPSViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], opts IPSOptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	wp, cp := getFloats(n), getFloats(n)
	defer putFloats(wp)
	defer putFloats(cp)
	weights, contrib := *wp, *cp
	if err := forEachRecordCtx(ctx, n, func(lo, hi int) error {
		ipsFill(v, tb, opts.Clip, weights, contrib, lo, hi)
		return nil
	}); err != nil {
		return Estimate{}, err
	}
	maxW := maxWeight(weights)
	var est Estimate
	if opts.SelfNormalize {
		// contrib is spent; reuse it for the rewards in view order.
		rews := contrib
		for j := range rews {
			rews[j] = v.rewards[v.row(j)]
		}
		est.Value = mathx.WeightedMean(rews, weights)
		// Plug-in stderr via the linearized influence function of SNIPS.
		wbar := mathx.Mean(weights)
		if wbar > 0 {
			ip := getFloats(n)
			infl := *ip
			for j := range infl {
				infl[j] = weights[j] * (rews[j] - est.Value) / wbar
			}
			est.StdErr = mathx.StdDev(infl) / math.Sqrt(float64(n))
			putFloats(ip)
		}
		est.N = n
	} else {
		est = summarizeContributions(contrib)
	}
	est.ESS = mathx.EffectiveSampleSize(weights)
	est.MaxWeight = maxW
	return est, nil
}

// ipsFill writes the (clipped) importance weight and the weighted
// reward of v's positions [lo, hi).
//
//lint:hot
func ipsFill[C any, D comparable](v *TraceView[C, D], tb *viewTables[D], clip float64, weights, contrib []float64, lo, hi int) {
	k := tb.k
	for j := lo; j < hi; j++ {
		i := v.row(j)
		w := tb.probFirst[int(v.ctxCodes[i])*k+int(v.decCodes[i])] / v.propensities[i]
		if clip > 0 && w > clip {
			w = clip
		}
		weights[j] = w
		contrib[j] = w * v.rewards[i]
	}
}

// DoublyRobustViewCtx estimates V(µ_new) by combining the reward model
// with an importance-weighted correction using observed rewards (the
// paper's Eq. 2):
//
//	V̂_DR = (1/n) Σ_k [ Σ_d µ_new(d|c_k) r̂(c_k,d)
//	                   + w_k · (r_k − r̂(c_k,d_k)) ],
//	w_k = µ_new(d_k|c_k)/µ_old(d_k|c_k).
//
// DR is accurate when either the reward model or the propensities are
// accurate ("double robustness"), and its error is bounded by roughly
// the product of the two ingredient errors ("second-order bias").
func DoublyRobustViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts DROptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	if j, err := firstInvalid(v, tb); err != nil {
		return Estimate{}, fmt.Errorf("record %d: %w", j, err)
	}
	mt := buildModelTable(v, tb, model)
	defer mt.release()
	dp, wp, rp, cp := getFloats(n), getFloats(n), getFloats(n), getFloats(n)
	defer putFloats(dp)
	defer putFloats(wp)
	defer putFloats(rp)
	defer putFloats(cp)
	dmPart, weights, resid := *dp, *wp, *rp
	err := forEachRecordCtx(ctx, n, func(lo, hi int) error {
		drFill(v, tb, mt, opts.Clip, dmPart, weights, resid, lo, hi)
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	return drSummarize(dmPart, weights, resid, *cp, opts.SelfNormalize), nil
}

// drFill writes the DR ingredients of v's positions [lo, hi): the
// direct-method part, the (clipped) importance weight and the model
// residual of each record, indexed by position.
//
//lint:hot
func drFill[C any, D comparable](v *TraceView[C, D], tb *viewTables[D], mt *modelTable, clip float64, dmPart, weights, resid []float64, lo, hi int) {
	k := tb.k
	for j := lo; j < hi; j++ {
		i := v.row(j)
		u, kc := int(v.ctxCodes[i]), int(v.decCodes[i])
		dmPart[j] = mt.dm[u]
		w := tb.probFirst[u*k+kc] / v.propensities[i]
		if clip > 0 && w > clip {
			w = clip
		}
		weights[j] = w
		resid[j] = v.rewards[i] - mt.pred[u*k+kc]
	}
}

// drSummarize folds drFill's ingredients into the DR estimate, with
// contrib (same length) as scratch for the per-record contributions.
func drSummarize(dmPart, weights, resid, contrib []float64, selfNormalize bool) Estimate {
	// Self-normalization scales every correction by n/Σw (1 when off,
	// or when Σw is not positive).
	scale := 1.0
	if selfNormalize {
		sumW := 0.0
		for _, w := range weights {
			sumW += w
		}
		if sumW > 0 {
			scale = float64(len(contrib)) / sumW
		}
	}
	for j := range contrib {
		contrib[j] = dmPart[j] + scale*weights[j]*resid[j]
	}
	est := summarizeContributions(contrib)
	est.ESS = mathx.EffectiveSampleSize(weights)
	est.MaxWeight = maxWeight(weights)
	return est
}

// SwitchDRViewCtx is the SWITCH estimator of Wang, Agarwal & Dudík
// (2017) adapted to the DR form: a per-record interpolation between DR
// (where importance weights are moderate, so the correction is
// trustworthy) and the pure Direct Method (where weights explode, so
// the correction would inject more variance than the model's bias
// costs).
//
// Compared with hard clipping (DROptions.Clip), switching drops the
// partially-corrected term entirely above the threshold instead of
// keeping a truncated — and therefore systematically understated —
// correction. On traces logged by nearly deterministic policies (§4.1's
// regime) this is often the better bias/variance point; the ablation
// bench BenchmarkAblationSwitchVsClip compares the two.
func SwitchDRViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts SwitchOptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	wp := getFloats(n)
	defer putFloats(wp)
	weights := *wp
	k := tb.k
	for j := 0; j < n; j++ {
		if j%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return Estimate{}, err
			}
		}
		i := v.row(j)
		weights[j] = tb.probFirst[int(v.ctxCodes[i])*k+int(v.decCodes[i])] / v.propensities[i]
	}
	tau := opts.Tau
	if tau <= 0 {
		tau = math.Max(1, mathx.Quantile(weights, 0.95))
	}
	// A per-record scan meets the first invalid distribution in its
	// contribution pass, after the weights; the tables know it up front.
	if _, err := firstInvalid(v, tb); err != nil {
		return Estimate{}, err
	}
	mt := buildModelTable(v, tb, model)
	defer mt.release()
	cp, kp := getFloats(n), getFloats(n)
	defer putFloats(cp)
	defer putFloats(kp)
	contrib := *cp
	kept := (*kp)[:0]
	maxW := 0.0
	for j := 0; j < n; j++ {
		if j%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return Estimate{}, err
			}
		}
		i := v.row(j)
		u, kc := int(v.ctxCodes[i]), int(v.decCodes[i])
		dm := mt.dm[u]
		if weights[j] <= tau {
			contrib[j] = dm + weights[j]*(v.rewards[i]-mt.pred[u*k+kc])
			//lint:allow hotalloc appends into pooled scratch; grows only until capacity settles
			kept = append(kept, weights[j])
			if weights[j] > maxW {
				maxW = weights[j]
			}
		} else {
			contrib[j] = dm
		}
	}
	est := summarizeContributions(contrib)
	if len(kept) > 0 {
		est.ESS = mathx.EffectiveSampleSize(kept)
	}
	est.MaxWeight = maxW
	return est, nil
}

// MatchedRewardsViewCtx estimates V(µ_new) by exact decision matching:
// it averages observed rewards over records whose logged decision would
// be the (deterministic, highest-probability) choice of the new policy.
// This is the CFA-style evaluator of Figure 5 — unbiased under a
// randomized old policy but starved of data as the decision space
// grows. It returns the number of matched records in Estimate.N. When
// no record matches, it returns ErrNoMatches.
func MatchedRewardsViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D]) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	mp := getFloats(n)
	defer putFloats(mp)
	matched := (*mp)[:0]
	for j := 0; j < n; j++ {
		if j%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return Estimate{}, err
			}
		}
		i := v.row(j)
		if tb.argmax[v.ctxCodes[i]] == v.decCodes[i] {
			//lint:allow hotalloc appends into pooled scratch; grows only until capacity settles
			matched = append(matched, v.rewards[i])
		}
	}
	if len(matched) == 0 {
		return Estimate{}, ErrNoMatches
	}
	return summarizeContributions(matched), nil
}

// diagnoseCheckEvery is how many records DiagnoseViewCtx scans between
// context checks: frequent enough that cancelling a huge trace's
// diagnostic pass takes effect promptly, rare enough to be free.
const diagnoseCheckEvery = 8192

// DiagnoseViewCtx computes overlap diagnostics between the view's
// logging policy and a target policy. When a distribution lists a
// decision more than once, the last entry's probability is the one
// weighed.
func DiagnoseViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D]) (Diagnostics, error) {
	n := v.Len()
	if n == 0 {
		return Diagnostics{}, ErrEmptyTrace
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	d := Diagnostics{N: n, MinPropensity: v.propensities[v.row(0)]}
	wp := getFloats(n)
	defer putFloats(wp)
	weights := *wp
	matches := 0
	k := tb.k
	for j := 0; j < n; j++ {
		if j%diagnoseCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Diagnostics{}, err
			}
		}
		i := v.row(j)
		u, kc := int(v.ctxCodes[i]), int(v.decCodes[i])
		w := tb.probLast[u*k+kc] / v.propensities[i]
		weights[j] = w
		if w == 0 {
			d.ZeroSupport++
		}
		if w > d.MaxWeight {
			d.MaxWeight = w
		}
		if tb.argmax[u] == v.decCodes[i] {
			matches++
		}
		if v.propensities[i] < d.MinPropensity {
			d.MinPropensity = v.propensities[i]
		}
	}
	d.ESS = mathx.EffectiveSampleSize(weights)
	d.MatchRate = float64(matches) / float64(n)
	d.MeanWeight = mathx.Mean(weights)
	return d, nil
}

// CrossFitDRViewCtx runs the doubly robust estimator with K-fold
// cross-fitting: the records are split into K interleaved folds, the
// reward model for each fold is fit on the other K−1 folds, and
// fold-local DR estimates are averaged.
//
// Cross-fitting matters whenever the reward model is estimated from the
// evaluation trace itself (the common case — e.g. CFA's k-NN model).
// A model fit on all records partially memorizes each logged reward, so
// the DR residuals r_k − r̂(c_k, d_k) collapse toward zero and DR
// silently degrades to the biased Direct Method. Fitting out-of-fold
// restores the correction.
//
// The policy is flattened once for all folds and each fold is
// evaluated as a view of v; only the fit part is materialized (the
// generic ModelFitter consumes a Trace). ctx is checked before each
// fold.
func CrossFitDRViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], fit ModelFitter[C, D], folds int, opts DROptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if folds < 2 {
		return Estimate{}, errors.New("core: cross-fitting needs at least 2 folds")
	}
	if folds > n {
		folds = n
	}
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	ip := getInts(n)
	dp, wp, rp, cp := getFloats(n), getFloats(n), getFloats(n), getFloats(n)
	defer putInts(ip)
	defer putFloats(dp)
	defer putFloats(wp)
	defer putFloats(rp)
	defer putFloats(cp)

	var total, weightSum float64
	agg := Estimate{}
	fold := *v
	for f := 0; f < folds; f++ {
		if err := ctx.Err(); err != nil {
			return Estimate{}, err
		}
		var fitPart Trace[C, D]
		m := 0
		for j := 0; j < n; j++ {
			if j%folds == f {
				(*ip)[m] = v.row(j)
				m++
			} else {
				//lint:allow hotalloc per-fold training partition; cross-fitting is inherently O(n) per fold
				fitPart = append(fitPart, v.At(j))
			}
		}
		model, err := fit(fitPart)
		if err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d model fit: %w", f, err)
		}
		fold.rows = (*ip)[:m]
		if j, err := firstInvalid(&fold, tb); err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d: %w", f, fmt.Errorf("record %d: %w", j, err))
		}
		mt := buildModelTable(&fold, tb, model)
		drFill(&fold, tb, mt, opts.Clip, *dp, *wp, *rp, 0, m)
		mt.release()
		est := drSummarize((*dp)[:m], (*wp)[:m], (*rp)[:m], (*cp)[:m], opts.SelfNormalize)
		w := float64(est.N)
		total += est.Value * w
		weightSum += w
		agg.N += est.N
		agg.ESS += est.ESS
		if est.MaxWeight > agg.MaxWeight {
			agg.MaxWeight = est.MaxWeight
		}
		// Pool fold variances (approximate: folds are independent).
		agg.StdErr += est.StdErr * est.StdErr * w * w
	}
	agg.Value = total / weightSum
	agg.StdErr = math.Sqrt(agg.StdErr) / weightSum
	return agg, nil
}
