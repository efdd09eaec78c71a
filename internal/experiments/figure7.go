package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"drnet/internal/abr"
	"drnet/internal/biasobs"
	"drnet/internal/cdnsim"
	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// Figure7a reproduces the paper's Figure 7a ("Trace bias"): the WISE
// CBN evaluator versus DR on the Figure 4 CDN-configuration world, with
// 500 clients per observed measurement arrow and 5 per remaining
// frontend/backend choice. The new policy moves 50% of ISP-1 clients to
// (FE-1, BE-2). The paper reports DR's error ≈32% below WISE's.
func Figure7a(runs int, seed int64) (Result, error) {
	ctx := context.TODO()
	if runs <= 0 {
		runs = 50
	}
	type runOut struct{ wise, ips, dr, full float64 }
	var health *biasobs.HealthSummary
	outs, err := forEachRun(runs, seed, func(run int, rng *mathx.RNG) (runOut, error) {
		w := cdnsim.DefaultWorld()
		d, err := cdnsim.Collect(w, rng)
		if err != nil {
			return runOut{}, err
		}
		np := w.NewPolicy()
		truth := d.GroundTruth(np)
		v, err := core.NewTraceViewCtx(ctx, d.Trace)
		if err != nil {
			return runOut{}, err
		}
		if run == 0 {
			// Only run 0 writes; forEachRun's join orders it before the read.
			health = traceHealth(v, np)
		}
		model, err := d.WISEModel(2)
		if err != nil {
			return runOut{}, err
		}
		wise, err := core.DirectMethodViewCtx(ctx, v, np, model)
		if err != nil {
			return runOut{}, err
		}
		ips, err := core.IPSViewCtx(ctx, v, np, core.IPSOptions{})
		if err != nil {
			return runOut{}, err
		}
		dr, err := core.DoublyRobustViewCtx(ctx, v, np, model, core.DROptions{})
		if err != nil {
			return runOut{}, err
		}
		// A full-interaction CBN (maxParents=3) as an upper baseline.
		fullModel, err := d.WISEModel(3)
		if err != nil {
			return runOut{}, err
		}
		full, err := core.DirectMethodViewCtx(ctx, v, np, fullModel)
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			wise: mathx.RelativeError(truth, wise.Value),
			ips:  mathx.RelativeError(truth, ips.Value),
			dr:   mathx.RelativeError(truth, dr.Value),
			full: mathx.RelativeError(truth, full.Value),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	wiseErrs := column(outs, func(o runOut) float64 { return o.wise })
	ipsErrs := column(outs, func(o runOut) float64 { return o.ips })
	drErrs := column(outs, func(o runOut) float64 { return o.dr })
	dmKnownErrs := column(outs, func(o runOut) float64 { return o.full })
	res := Result{
		ID:    "F7a",
		Title: "Trace bias: WISE (CBN direct method) vs DR on the Figure 4 world",
		Runs:  runs,
		Rows: []Row{
			row("WISE (CBN DM)", "", wiseErrs),
			row("IPS", "", ipsErrs),
			row("DR", "", drErrs),
			row("CBN 3-parent DM", "", dmKnownErrs),
		},
	}
	res.Health = health
	res.Notes = append(res.Notes, fmt.Sprintf(
		"DR mean error is %.0f%% lower than WISE (paper reports ≈32%%; our propensities are exact, so DR does even better)",
		100*Reduction(mathx.Mean(wiseErrs), mathx.Mean(drErrs))))
	return res, nil
}

// Figure7bScenario returns the canonical Figure 7b configuration: a
// 100-chunk session, five bitrate levels, constant available bandwidth,
// observed throughput b·p(r) with p increasing in the bitrate, logged
// by an ε-randomized buffer-based policy.
func Figure7bScenario() *abr.Scenario {
	ladder := abr.DefaultLadder()
	return &abr.Scenario{
		Config: abr.SessionConfig{
			Ladder:      ladder,
			NumChunks:   100,
			Observation: abr.ObservationModel{Ladder: ladder, PMin: 0.55},
		},
		BandwidthKbps: 1200,
		OldPolicy:     abr.BBA{ReservoirSec: 5, CushionSec: 10, Epsilon: 0.2},
	}
}

// Figure7b reproduces the paper's Figure 7b ("Model bias"): the
// FastMPC-style evaluator (a Direct Method whose throughput model
// assumes observed throughput is independent of the chunk bitrate)
// versus DR, on sessions logged by a buffer-based policy. The paper
// reports DR's error ≈74% below the FastMPC evaluator's.
//
// sessionsPerRun controls how many independent 100-chunk sessions each
// run aggregates (the evaluation corpus); 5 is the default.
func Figure7b(runs, sessionsPerRun int, seed int64) (Result, error) {
	ctx := context.TODO()
	if runs <= 0 {
		runs = 50
	}
	if sessionsPerRun <= 0 {
		sessionsPerRun = 5
	}
	type runOut struct{ dm, ips, dr float64 }
	var health *biasobs.HealthSummary
	outs, err := forEachRun(runs, seed, func(run int, rng *mathx.RNG) (runOut, error) {
		s := Figure7bScenario()
		d, err := s.CollectMany(rng, sessionsPerRun)
		if err != nil {
			return runOut{}, err
		}
		np := d.NewPolicy(0)
		truth := d.GroundTruth(np)
		v, err := core.NewTraceViewCtx(ctx, d.Trace)
		if err != nil {
			return runOut{}, err
		}
		if run == 0 {
			health = traceHealth(v, np)
		}
		model := core.RewardFunc[abr.Chunk, int](d.ModelReward)
		dm, err := core.DirectMethodViewCtx(ctx, v, np, model)
		if err != nil {
			return runOut{}, err
		}
		ips, err := core.IPSViewCtx(ctx, v, np, core.IPSOptions{Clip: 8})
		if err != nil {
			return runOut{}, err
		}
		dr, err := core.DoublyRobustViewCtx(ctx, v, np, model, core.DROptions{Clip: 8})
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			dm:  mathx.RelativeError(truth, dm.Value),
			ips: mathx.RelativeError(truth, ips.Value),
			dr:  mathx.RelativeError(truth, dr.Value),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	dmErrs := column(outs, func(o runOut) float64 { return o.dm })
	ipsErrs := column(outs, func(o runOut) float64 { return o.ips })
	drErrs := column(outs, func(o runOut) float64 { return o.dr })
	res := Result{
		ID:    "F7b",
		Title: "Model bias: FastMPC-style evaluator vs DR on the ABR world",
		Runs:  runs,
		Rows: []Row{
			row("FastMPC (DM)", "", dmErrs),
			row("IPS (clip 8)", "", ipsErrs),
			row("DR (clip 8)", "", drErrs),
		},
	}
	res.Health = health
	res.Notes = append(res.Notes,
		fmt.Sprintf("DR mean error is %.0f%% lower than the FastMPC evaluator (paper reports ≈74%%; exact sim parameters were never published)",
			100*Reduction(mathx.Mean(dmErrs), mathx.Mean(drErrs))),
		"a pure trace-replay reward model memorizes logged rewards, zeroing DR's residuals; the predictor-based model is the corrigible baseline")
	return res, nil
}

// clientKey interns CFA clients by their full feature vector — the only
// field Client has, so no policy or model can distinguish two clients
// that share a key and the keyed TraceView stays faithful.
func clientKey(c cfa.Client) string {
	var b strings.Builder
	for _, f := range c.Features {
		b.WriteString(strconv.Itoa(f))
		b.WriteByte(',')
	}
	return b.String()
}

// Figure7c reproduces the paper's Figure 7c ("Variance"): the CFA
// exact-matching evaluator versus DR with a k-NN direct model on the
// randomized-logging video-QoE world. The paper reports DR's error ≈36%
// below CFA's.
func Figure7c(runs, clients int, seed int64) (Result, error) {
	ctx := context.TODO()
	if runs <= 0 {
		runs = 50
	}
	if clients <= 0 {
		clients = 1000
	}
	type runOut struct{ cfa, dm, dr float64 }
	var health *biasobs.HealthSummary
	outs, err := forEachRun(runs, seed, func(run int, rng *mathx.RNG) (runOut, error) {
		w := cfa.DefaultWorld()
		if err := w.Init(rng); err != nil {
			return runOut{}, err
		}
		d, err := w.Collect(clients, rng)
		if err != nil {
			return runOut{}, err
		}
		np := w.NewPolicy(0.4, rng)
		truth := d.GroundTruth(np)
		v, err := core.NewTraceViewKeyedCtx(ctx, d.Trace, clientKey)
		if err != nil {
			return runOut{}, err
		}
		if run == 0 {
			health = traceHealth(v, np)
		}
		matched, err := core.MatchedRewardsViewCtx(ctx, v, np)
		if err != nil {
			return runOut{}, err
		}
		model, err := d.PerDecisionKNNModel(3)
		if err != nil {
			return runOut{}, err
		}
		dm, err := core.DirectMethodViewCtx(ctx, v, np, model)
		if err != nil {
			return runOut{}, err
		}
		fit := func(tr core.Trace[cfa.Client, cfa.Decision]) (core.RewardModel[cfa.Client, cfa.Decision], error) {
			return (&cfa.Data{Trace: tr, World: d.World}).PerDecisionKNNModel(3)
		}
		dr, err := core.CrossFitDRViewCtx(ctx, v, np, fit, 2, core.DROptions{})
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			cfa: mathx.RelativeError(truth, matched.Value),
			dm:  mathx.RelativeError(truth, dm.Value),
			dr:  mathx.RelativeError(truth, dr.Value),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	cfaErrs := column(outs, func(o runOut) float64 { return o.cfa })
	dmErrs := column(outs, func(o runOut) float64 { return o.dm })
	drErrs := column(outs, func(o runOut) float64 { return o.dr })
	res := Result{
		ID:    "F7c",
		Title: "Variance: CFA exact matching vs DR (cross-fit k-NN DM) on the video-QoE world",
		Runs:  runs,
		Rows: []Row{
			row("CFA (matching)", "", cfaErrs),
			row("k-NN DM", "", dmErrs),
			row("DR (cross-fit)", "", drErrs),
		},
	}
	res.Health = health
	res.Notes = append(res.Notes, fmt.Sprintf(
		"DR mean error is %.0f%% lower than CFA matching (paper reports ≈36%%)",
		100*Reduction(mathx.Mean(cfaErrs), mathx.Mean(drErrs))))
	return res, nil
}
