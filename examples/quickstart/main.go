// Quickstart: evaluate a new policy offline from a logged trace.
//
// This example builds the smallest possible data-driven networking
// problem — three server choices whose reward depends on a scalar
// client feature — logs a trace under an old ε-greedy policy, and then
// compares the Direct Method, IPS and Doubly Robust estimates of a new
// policy's value against the (simulation-only) ground truth.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(7)

	// The world: clients are scalar contexts x ∈ [0,1]; choosing server
	// d earns expected reward x·(d+1) — bigger servers help heavy
	// clients more — plus measurement noise.
	trueReward := func(x float64, d int) float64 { return x * float64(d+1) }
	drawReward := func(x float64, d int) float64 { return trueReward(x, d) + rng.Normal(0, 0.2) }
	servers := []int{0, 1, 2}

	// The old (logging) policy prefers server 0 but explores 30% of the
	// time — the randomness IPS and DR need (§4.1 of the paper).
	oldPolicy := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: servers,
		Epsilon:   0.3,
	}

	// Collect a trace: 2000 clients served by the old policy.
	clients := make([]float64, 2000)
	for i := range clients {
		clients[i] = rng.Float64()
	}
	trace := core.CollectTrace(clients, oldPolicy, drawReward, rng)
	fmt.Printf("logged %d records; old policy's on-policy value: %.3f\n\n",
		len(trace), trace.MeanReward())

	// The new policy we want to evaluate offline: prefer server 2.
	newPolicy := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: servers,
		Epsilon:   0.1,
	}

	// Every estimator reads the trace's columnar view.
	ctx := context.Background()
	view, err := core.NewTraceViewCtx(ctx, trace)
	must(err)

	// Always check overlap before trusting any off-policy estimate.
	diag, err := core.DiagnoseViewCtx(ctx, view, newPolicy)
	must(err)
	fmt.Printf("overlap diagnostics: %s\n\n", diag)

	// A deliberately imperfect reward model (offset bias), standing in
	// for whatever predictor a real system would fit.
	model := core.RewardFunc[float64, int](func(x float64, d int) float64 {
		return trueReward(x, d) + 0.25
	})

	dm, err := core.DirectMethodViewCtx(ctx, view, newPolicy, model)
	must(err)
	ips, err := core.IPSViewCtx(ctx, view, newPolicy, core.IPSOptions{})
	must(err)
	dr, err := core.DoublyRobustViewCtx(ctx, view, newPolicy, model, core.DROptions{})
	must(err)

	truth := core.TrueValue(clients, newPolicy, trueReward)
	fmt.Printf("ground truth (simulation only): %.4f\n", truth)
	fmt.Printf("DM  (biased model): %s   (error %.1f%%)\n", dm, 100*mathx.RelativeError(truth, dm.Value))
	fmt.Printf("IPS:                %s   (error %.1f%%)\n", ips, 100*mathx.RelativeError(truth, ips.Value))
	fmt.Printf("DR:                 %s   (error %.1f%%)\n", dr, 100*mathx.RelativeError(truth, dr.Value))

	// Bootstrap a confidence interval for the DR estimate: 300 seeded
	// resamples, each evaluated as a view of the resampled records.
	ci, _, err := core.Bootstrap(ctx, view, func(ctx context.Context, rv *core.TraceView[float64, int]) (core.Estimate, error) {
		return core.DoublyRobustViewCtx(ctx, rv, newPolicy, model, core.DROptions{})
	}, 7, 300, 0.95)
	must(err)
	fmt.Printf("DR 95%% bootstrap CI: [%.4f, %.4f]\n", ci.Lo, ci.Hi)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
