package experiments

import (
	"context"
	"fmt"

	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// PolicySelection is experiment E8: the paper's Figure 1 workflow end
// to end. Several candidate CDN/bitrate assignment policies are
// compared offline on one logged trace, and we measure how often each
// evaluator picks the truly best candidate and how much value its pick
// forfeits (regret). This is the decision-quality view of the same
// bias/variance story Figure 7 tells in estimation error.
func PolicySelection(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 50
	}
	const clients = 1000
	var dmRegret, cfaRegret, drRegret []float64
	var dmTop, cfaTop, drTop []float64
	for run := 0; run < runs; run++ {
		rng := mathx.NewRNG(seed + int64(run))
		w := cfa.DefaultWorld()
		if err := w.Init(rng); err != nil {
			return Result{}, err
		}
		d, err := w.Collect(clients, rng)
		if err != nil {
			return Result{}, err
		}
		// Candidates: increasingly noisy approximations of the optimal
		// assignment, plus uniform random.
		cands := []core.Candidate[cfa.Client, cfa.Decision]{
			{Name: "sharp", Policy: w.NewPolicy(0.2, rng)},
			{Name: "medium", Policy: w.NewPolicy(0.8, rng)},
			{Name: "blurry", Policy: w.NewPolicy(2.0, rng)},
			{Name: "uniform", Policy: w.OldPolicy()},
		}
		truths := make([]float64, len(cands))
		best := 0
		for i, c := range cands {
			truths[i] = d.GroundTruth(c.Policy)
			if truths[i] > truths[best] {
				best = i
			}
		}
		// Sample splitting: fit the model on half the trace, evaluate
		// on the other half, so the DM cannot memorize what it scores.
		fitHalf, evalHalf, err := d.Trace.Split(0.5)
		if err != nil {
			return Result{}, err
		}
		model, err := (&cfa.Data{Trace: fitHalf, World: d.World}).PerDecisionKNNModel(3)
		if err != nil {
			return Result{}, err
		}

		pick := func(score func(core.Candidate[cfa.Client, cfa.Decision]) (float64, bool)) int {
			bestIdx, bestVal, any := -1, 0.0, false
			for i, c := range cands {
				v, ok := score(c)
				if !ok {
					continue
				}
				if !any || v > bestVal {
					bestIdx, bestVal, any = i, v, true
				}
			}
			if bestIdx < 0 {
				bestIdx = 0
			}
			return bestIdx
		}
		ctx := context.TODO()
		v, err := core.NewTraceViewKeyedCtx(ctx, evalHalf, clientKey)
		if err != nil {
			return Result{}, err
		}
		dmPick := pick(func(c core.Candidate[cfa.Client, cfa.Decision]) (float64, bool) {
			est, err := core.DirectMethodViewCtx(ctx, v, c.Policy, model)
			return est.Value, err == nil
		})
		cfaPick := pick(func(c core.Candidate[cfa.Client, cfa.Decision]) (float64, bool) {
			est, err := core.MatchedRewardsViewCtx(ctx, v, c.Policy)
			return est.Value, err == nil
		})
		drPick := pick(func(c core.Candidate[cfa.Client, cfa.Decision]) (float64, bool) {
			est, err := core.DoublyRobustViewCtx(ctx, v, c.Policy, model, core.DROptions{})
			return est.Value, err == nil
		})

		score := func(pickIdx int) (regret, top float64) {
			regret = truths[best] - truths[pickIdx]
			if pickIdx == best {
				top = 1
			}
			return
		}
		r, t := score(dmPick)
		dmRegret, dmTop = append(dmRegret, r), append(dmTop, t)
		r, t = score(cfaPick)
		cfaRegret, cfaTop = append(cfaRegret, r), append(cfaTop, t)
		r, t = score(drPick)
		drRegret, drTop = append(drRegret, r), append(drTop, t)
	}
	res := Result{
		ID:    "E8",
		Title: "Policy selection: which evaluator picks the truly best candidate?",
		Runs:  runs,
		Rows: []Row{
			row("DM  regret", "value lost", dmRegret),
			row("CFA regret", "value lost", cfaRegret),
			row("DR  regret", "value lost", drRegret),
			row("DM  top-1", "accuracy", dmTop),
			row("CFA top-1", "accuracy", cfaTop),
			row("DR  top-1", "accuracy", drTop),
		},
	}
	res.Notes = append(res.Notes,
		"regret = true value of the best candidate minus true value of the evaluator's pick",
		"candidates: sharp/medium/blurry approximations of the optimal assignment, plus uniform")
	return res, nil
}

// PropensityEstimation is experiment E9: how much is lost when the
// logging propensities are estimated from the trace rather than known?
// The logging policy depends smoothly on the context; rows compare DR
// with exact propensities, with grouped empirical estimates, and with
// the one-vs-rest logistic model.
func PropensityEstimation(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 50
	}
	const n = 3000
	newPolicy := banditPolicy(2, 0.2)
	var exactErrs, groupErrs, logitErrs []float64
	for run := 0; run < runs; run++ {
		b := &banditWorld{rng: mathx.NewRNG(seed + int64(run)), noise: 0.2}
		old := core.FuncPolicy[float64, int](func(x float64) []core.Weighted[int] {
			p := mathx.Sigmoid(3 * (x - 0.5)) // heavier clients steered to 2
			q := (1 - p) / 2
			return []core.Weighted[int]{{Decision: 0, Prob: q}, {Decision: 1, Prob: q}, {Decision: 2, Prob: p}}
		})
		ctxs := b.contexts(n)
		tr := core.CollectTrace(ctxs, old, b.drawReward, b.rng)
		truth := core.TrueValue(ctxs, newPolicy, b.trueReward)
		model := core.RewardFunc[float64, int](func(x float64, d int) float64 {
			return b.trueReward(x, d) + 0.3 // mildly biased
		})

		ctx := context.TODO()
		evalDR := func(t core.Trace[float64, int]) (float64, error) {
			v, err := core.NewTraceViewCtx(ctx, t)
			if err != nil {
				return 0, err
			}
			est, err := core.DoublyRobustViewCtx(ctx, v, newPolicy, model, core.DROptions{})
			return est.Value, err
		}
		exact, err := evalDR(tr)
		if err != nil {
			return Result{}, err
		}
		// Grouped empirical estimate on a coarse discretization of x.
		grouped := append(core.Trace[float64, int](nil), tr...)
		if err := core.EstimatePropensitiesCtx(ctx, grouped, func(x float64) string {
			return fmt.Sprintf("%d", int(x*10))
		}, 20, 1e-3); err != nil {
			return Result{}, err
		}
		gv, err := evalDR(grouped)
		if err != nil {
			return Result{}, err
		}
		// Logistic propensity model.
		logit := append(core.Trace[float64, int](nil), tr...)
		if _, err := core.FitPropensityModelCtx(ctx, logit, func(x float64) []float64 {
			return []float64{x}
		}, 1e-4, 1e-3); err != nil {
			return Result{}, err
		}
		lv, err := evalDR(logit)
		if err != nil {
			return Result{}, err
		}
		exactErrs = append(exactErrs, mathx.RelativeError(truth, exact))
		groupErrs = append(groupErrs, mathx.RelativeError(truth, gv))
		logitErrs = append(logitErrs, mathx.RelativeError(truth, lv))
	}
	res := Result{
		ID:    "E9",
		Title: "Estimated propensities: DR with exact vs empirical vs logistic µ_old",
		Runs:  runs,
		Rows: []Row{
			row("DR, exact propensities", "", exactErrs),
			row("DR, grouped empirical", "", groupErrs),
			row("DR, logistic model", "", logitErrs),
		},
	}
	return res, nil
}
