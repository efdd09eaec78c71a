package experiments

import (
	"context"
	"fmt"

	"drnet/internal/bandit"
	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// OnlineVsOffline is experiment E11: the trade the paper's introduction
// frames — learn live with group-based exploration–exploitation
// (Pytheas-style [18]) versus evaluate offline on logs you already have
// (the trace-driven workflow of Figure 1).
//
// Both approaches must produce a deployment policy for the CFA world.
// Online, a per-group UCB1 bandit learns from scratch over a horizon of
// fresh clients, paying exploration regret while serving them; its
// deployed policy is the per-group empirical argmax. Offline, DR picks
// the best of a set of candidate policies using an existing uniformly
// randomized trace of the same size — at zero additional live cost.
//
// Rows report the value achieved while learning (online only), the
// value of each deployed policy, and reference points (oracle and
// uniform).
func OnlineVsOffline(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	const horizon = 1500
	var liveOnline, deployedOnline, deployedOffline, oracleVals, uniformVals []float64
	for run := 0; run < runs; run++ {
		rng := mathx.NewRNG(seed + int64(run))
		w := cfa.DefaultWorld()
		if err := w.Init(rng); err != nil {
			return Result{}, err
		}
		group := func(c cfa.Client) string {
			key := ""
			for j := 0; j < w.InteractingFeatures; j++ {
				key += fmt.Sprintf("%d,", c.Features[j])
			}
			return key
		}
		evalClients := w.SampleClients(3000, rng)
		valueOf := func(choose func(cfa.Client) cfa.Decision) float64 {
			total := 0.0
			for _, c := range evalClients {
				total += w.TrueQuality(c, choose(c))
			}
			return total / float64(len(evalClients))
		}
		oracle := func(c cfa.Client) cfa.Decision {
			best, bestV := cfa.Decision{}, -1e300
			for _, d := range w.Decisions() {
				if v := w.TrueQuality(c, d); v > bestV {
					bestV, best = v, d
				}
			}
			return best
		}
		oracleVals = append(oracleVals, valueOf(oracle))

		// --- Online: per-group UCB1 over the decision grid.
		gb, err := bandit.New(w.Decisions(), bandit.UCB1{})
		if err != nil {
			return Result{}, err
		}
		liveClients := w.SampleClients(horizon, rng)
		liveSum := 0.0
		for _, c := range liveClients {
			g := group(c)
			d := gb.Choose(g, rng)
			r := w.DrawQuality(c, d, rng)
			liveSum += w.TrueQuality(c, d)
			if err := gb.Observe(g, d, r); err != nil {
				return Result{}, err
			}
		}
		liveOnline = append(liveOnline, liveSum/float64(horizon))
		fallback := w.Decisions()[0]
		deployedOnline = append(deployedOnline, valueOf(func(c cfa.Client) cfa.Decision {
			if d, ok := gb.Best(group(c)); ok {
				return d
			}
			return fallback
		}))

		// --- Offline: DR-select among candidate policies using an
		// existing randomized trace of the same size.
		d, err := w.Collect(horizon, rng)
		if err != nil {
			return Result{}, err
		}
		cands := []core.Candidate[cfa.Client, cfa.Decision]{
			{Name: "sharp", Policy: w.NewPolicy(0.2, rng)},
			{Name: "medium", Policy: w.NewPolicy(0.8, rng)},
			{Name: "blurry", Policy: w.NewPolicy(2.0, rng)},
			{Name: "uniform", Policy: w.OldPolicy()},
		}
		fitHalf, evalHalf, err := d.Trace.Split(0.5)
		if err != nil {
			return Result{}, err
		}
		model, err := (&cfa.Data{Trace: fitHalf, World: d.World}).PerDecisionKNNModel(3)
		if err != nil {
			return Result{}, err
		}
		ctx := context.TODO()
		v, err := core.NewTraceViewKeyedCtx(ctx, evalHalf, clientKey)
		if err != nil {
			return Result{}, err
		}
		bestIdx, bestVal := 0, -1e300
		for i, cand := range cands {
			est, err := core.DoublyRobustViewCtx(ctx, v, cand.Policy, model, core.DROptions{})
			if err != nil {
				return Result{}, err
			}
			if est.Value > bestVal {
				bestVal, bestIdx = est.Value, i
			}
		}
		picked := cands[bestIdx].Policy
		deployedOffline = append(deployedOffline, core.TrueValue(evalClients, picked, w.TrueQuality))
		uniformVals = append(uniformVals, core.TrueValue(evalClients, w.OldPolicy(), w.TrueQuality))
	}
	res := Result{
		ID:    "E11",
		Title: "Online bandit learning vs offline DR selection (same data budget)",
		Runs:  runs,
		Rows: []Row{
			row("oracle value", "true value", oracleVals),
			row("online: value while learning", "true value", liveOnline),
			row("online: deployed policy", "true value", deployedOnline),
			row("offline: DR-selected policy", "true value", deployedOffline),
			row("uniform (status quo)", "true value", uniformVals),
		},
	}
	res.Notes = append(res.Notes,
		"online learning pays its exploration as live regret and fragments data across groups; offline DR reuses existing randomized logs at zero live cost",
		"the offline candidates come from a prediction system (perturbed-argmax policies), which is the realistic operating point the paper targets")
	return res, nil
}
