package core

import (
	"context"
	"fmt"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
	Level  float64
}

// BootstrapStats reports bookkeeping from a bootstrap run, so callers
// can tell a fragile interval (many failed resamples) from a solid one
// and export the distinction as a metric.
type BootstrapStats struct {
	// Resamples is the number of resamples attempted (b after defaulting).
	Resamples int
	// Skipped counts resamples on which the estimator failed; their
	// values do not enter the interval.
	Skipped int
}

// ViewEstimator is any estimator over a view — a closure over one of
// the estimators in this package with its policy, model and options
// bound. Bootstrap calls it once per resample with a view of the
// resampled records; the view's index buffer is reused once the call
// returns, so the estimator must not retain the view.
type ViewEstimator[C any, D comparable] func(ctx context.Context, v *TraceView[C, D]) (Estimate, error)

// Bootstrap computes a percentile bootstrap confidence interval for an
// estimator by resampling v's records with replacement b times (b <= 0
// means 200). The b resamples run on the shared worker pool with one
// independent PCG stream per resample (parallel.ShardedRNG shard i
// draws resample i), so the interval and stats are a pure function of
// (v, est, seed, b, level): bit-identical at every worker count,
// including 1. Each resample is handed to est as a view sharing v's
// columns — one pooled index fill per resample, no record copies.
//
// Resamples on which the estimator fails (e.g. no matched records) are
// skipped and counted in BootstrapStats.Skipped; if every resample
// fails, the error of the last (highest-index) failing resample is
// returned. Once ctx ends, no new resample is scheduled, in-flight
// resamples finish, and ctx's error is returned.
//
//lint:hot
func Bootstrap[C any, D comparable](ctx context.Context, v *TraceView[C, D], est ViewEstimator[C, D], seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	return seededBootstrap(ctx, v, seed, b, level, func(idx []int) (float64, error) {
		rv := *v
		rv.rows = idx
		e, err := est(ctx, &rv)
		return e.Value, err
	})
}

// seededBootstrap runs the b resamples of v on the worker pool —
// resample i drawn from shard i of seed into a pooled index buffer —
// and collects value(idx) of each into the percentile interval.
func seededBootstrap[C any, D comparable](ctx context.Context, v *TraceView[C, D], seed int64, b int, level float64, value func(idx []int) (float64, error)) (Interval, BootstrapStats, error) {
	if v.Len() == 0 {
		return Interval{}, BootstrapStats{}, ErrEmptyTrace
	}
	if b <= 0 {
		b = 200
	}
	if level <= 0 || level >= 1 {
		return Interval{}, BootstrapStats{}, fmt.Errorf("core: confidence level %g out of (0,1)", level)
	}
	sh := parallel.NewShardedRNG(seed)
	draws, err := parallel.TimesCtx(ctx, b, 0, func(i int) (bootstrapDraw, error) {
		ip := drawResample(v, sh.Shard(i))
		val, derr := value(*ip)
		putInts(ip)
		if derr != nil {
			return bootstrapDraw{err: derr}, nil
		}
		return bootstrapDraw{value: val}, nil
	})
	if err != nil {
		return Interval{}, BootstrapStats{}, err
	}
	return collectBootstrapDraws(draws, b, level)
}

// drawResample fills a pooled buffer with v.Len() record indices drawn
// uniformly with replacement from v (column indices, so the buffer can
// serve as a view's rows). Release it with putInts.
func drawResample[C any, D comparable](v *TraceView[C, D], rng *mathx.RNG) *[]int {
	n := v.Len()
	ip := getInts(n)
	idx := *ip
	for j := range idx {
		idx[j] = v.row(rng.Intn(n))
	}
	return ip
}

// bootstrapDraw is one resample outcome from a seeded bootstrap run.
type bootstrapDraw struct {
	value float64
	err   error
}

// collectBootstrapDraws aggregates per-resample outcomes, in resample
// order, into the percentile interval and stats.
func collectBootstrapDraws(draws []bootstrapDraw, b int, level float64) (Interval, BootstrapStats, error) {
	stats := BootstrapStats{Resamples: b}
	values := make([]float64, len(draws))
	var lastErr error
	kept := 0
	for _, d := range draws {
		if d.err != nil {
			lastErr = d.err
			stats.Skipped++
			continue
		}
		values[kept] = d.value
		kept++
	}
	values = values[:kept]
	if kept == 0 {
		return Interval{}, stats, fmt.Errorf("core: all bootstrap resamples failed: %w", lastErr)
	}
	alpha := (1 - level) / 2
	return Interval{
		Lo:    mathx.Quantile(values, alpha),
		Hi:    mathx.Quantile(values, 1-alpha),
		Level: level,
	}, stats, nil
}

// BootstrapDRViewSeededStatsCtx bootstraps the refit doubly robust
// estimator: each resample refits the per-(context, decision) table
// model on the resampled records and evaluates DR with it — the exact
// estimator drevald's /evaluate serves (FitTableView + DoublyRobust per
// resample), reduced to running sufficient statistics over index
// draws. Its interval and stats are bit-identical to Bootstrap with
// that closure and the same seed; resamples, seeding, skipping and
// cancellation behave as in Bootstrap.
//
// The policy is flattened over the view's context dictionary once;
// each resample then touches only pooled arrays: per-cell refit sums,
// per-context direct-method values, and an in-order running
// contribution sum.
//
//lint:hot
func BootstrapDRViewSeededStatsCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], opts DROptions, seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	tb := buildViewTables(v, newPolicy)
	defer tb.release()
	return seededBootstrap(ctx, v, seed, b, level, func(idx []int) (float64, error) {
		return drRefitResampleValue(v, tb, idx, opts)
	})
}

// drRefitResampleValue computes the DR point estimate of one resample
// (idx: column indices) with a table model refit on that resample.
// Every accumulation runs in idx order, reproducing bit-for-bit what
// FitTableView + DoublyRobustViewCtx compute on the resample's view:
//   - per-cell reward sums and the default (resample mean reward)
//     accumulate in record order, as FitTableViewCtx does;
//   - the per-context dm value consumes the flattened distribution in
//     its original entry order, as the per-record dm loop does;
//   - contributions are summed in record order, as
//     summarizeContributions' mean does (only the point estimate
//     enters the interval, so no per-record array is needed).
func drRefitResampleValue[C any, D comparable](v *TraceView[C, D], tb *viewTables[D], idx []int, opts DROptions) (float64, error) {
	if tb.anyInvalid {
		for j, i := range idx {
			if err := tb.valErr[v.ctxCodes[i]]; err != nil {
				return 0, fmt.Errorf("record %d: %w", j, err)
			}
		}
	}
	numCtx, k := len(tb.argmax), tb.k
	mp := getFloats(numCtx * k)
	cp := getInt32s(numCtx * k)
	dp := getFloats(numCtx)
	defer putFloats(mp)
	defer putInt32s(cp)
	defer putFloats(dp)
	means, counts, dm := *mp, *cp, *dp
	for c := range means {
		means[c] = 0
		counts[c] = 0
	}
	// Refit: per-cell mean rewards plus the resample's mean reward as
	// the default for unseen cells.
	total := 0.0
	for _, id := range idx {
		cell := int(v.ctxCodes[id])*k + int(v.decCodes[id])
		means[cell] += v.rewards[id]
		counts[cell]++
		total += v.rewards[id]
	}
	nf := float64(len(idx))
	def := total / nf
	for c, cnt := range counts {
		if cnt > 0 {
			means[c] /= float64(cnt)
		}
	}
	// Direct-method value per context under the refit model.
	for u := 0; u < numCtx; u++ {
		row := u * k
		s := 0.0
		for j := tb.distOff[u]; j < tb.distOff[u+1]; j++ {
			p := def
			if ci := tb.distCode[j]; ci >= 0 && counts[row+int(ci)] > 0 {
				p = means[row+int(ci)]
			}
			s += tb.distProb[j] * p
		}
		dm[u] = s
	}
	// Self-normalization scales every correction by n/Σw (1 when off,
	// or when Σw is not positive).
	scale := 1.0
	if opts.SelfNormalize {
		sumW := 0.0
		for _, id := range idx {
			w := tb.probFirst[int(v.ctxCodes[id])*k+int(v.decCodes[id])] / v.propensities[id]
			if opts.Clip > 0 && w > opts.Clip {
				w = opts.Clip
			}
			sumW += w
		}
		if sumW > 0 {
			scale = nf / sumW
		}
	}
	s := 0.0
	for _, id := range idx {
		u, kc := int(v.ctxCodes[id]), int(v.decCodes[id])
		cell := u*k + kc
		w := tb.probFirst[cell] / v.propensities[id]
		if opts.Clip > 0 && w > opts.Clip {
			w = opts.Clip
		}
		pred := def
		if counts[cell] > 0 {
			pred = means[cell]
		}
		s += dm[u] + scale*w*(v.rewards[id]-pred)
	}
	return s / nf, nil
}
