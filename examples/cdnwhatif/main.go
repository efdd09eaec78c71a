// CDN what-if analysis: the paper's Figure 4 / Figure 7a story.
//
// A CDN operator logs response times of requests from two ISPs routed
// through two frontends and two backends. Because the logging
// configuration nearly always pairs FE-1 with BE-1 and FE-2 with BE-2,
// a WISE-style Causal Bayesian Network learned from the trace cannot
// separate the frontend's effect from the backend's — and confidently
// mispredicts the unobserved combination (FE-1, BE-2) for ISP-1.
//
// The Doubly Robust estimator rescues the what-if answer by weighting in
// the handful of logged requests that actually used (FE-1, BE-2).
//
// Run with: go run ./examples/cdnwhatif
package main

import (
	"context"
	"fmt"

	"drnet/internal/cdnsim"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(23)
	world := cdnsim.DefaultWorld()
	fmt.Println(world)

	data, err := cdnsim.Collect(world, rng)
	must(err)
	fmt.Printf("logged %d requests; decision counts: %v\n\n", len(data.Trace), data.Trace.DecisionCounts())

	// Learn the WISE model (CBN capped at 2 parents, like an
	// under-provisioned structure learner on a skewed trace).
	model, err := data.WISEModel(2)
	must(err)

	// The paper's "request X": ISP-1 via FE-1 and BE-2.
	x := cdnsim.Request{ISP: cdnsim.ISP1}
	cfg := cdnsim.Config{FE: 0, BE: 1}
	fmt.Printf("request X = ISP-1 via FE-1/BE-2\n")
	fmt.Printf("  WISE predicts: %6.1f ms\n", model.Predict(x, cfg))
	fmt.Printf("  ground truth:  %6.1f ms  (short — only FE-1 AND BE-1 is slow for ISP-1)\n\n",
		world.MeanResponse(x, cfg))

	// Evaluate the new configuration policy (50% of ISP-1 moves to
	// FE-1/BE-2) three ways.
	np := world.NewPolicy()
	truth := data.GroundTruth(np)
	ctx := context.Background()
	view, err := core.NewTraceViewCtx(ctx, data.Trace)
	must(err)
	dm, err := core.DirectMethodViewCtx(ctx, view, np, model)
	must(err)
	dr, err := core.DoublyRobustViewCtx(ctx, view, np, model, core.DROptions{})
	must(err)

	fmt.Printf("expected response time of the new configuration policy:\n")
	fmt.Printf("  ground truth: %7.2f ms\n", truth)
	fmt.Printf("  WISE (DM):    %7.2f ms  (error %.1f%%)\n", dm.Value, 100*mathx.RelativeError(truth, dm.Value))
	fmt.Printf("  DR:           %7.2f ms  (error %.1f%%)\n", dr.Value, 100*mathx.RelativeError(truth, dr.Value))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
