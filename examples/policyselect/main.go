// Policy selection: the full Figure 1 workflow.
//
// A video provider has one logged trace (randomized CDN/bitrate
// assignment) and four candidate assignment policies of varying
// quality. core.SelectBest estimates each candidate with DR, attaches
// bootstrap confidence intervals and overlap diagnostics, screens out
// candidates the trace cannot support, and ranks the rest — so the
// operator deploys the best policy without a live experiment.
//
// Run with: go run ./examples/policyselect
package main

import (
	"context"
	"fmt"

	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(17)
	world := cfa.DefaultWorld()
	must(world.Init(rng))
	fmt.Println(&world)

	data, err := world.Collect(1500, rng)
	must(err)

	// Candidate policies: three data-driven assignments of decreasing
	// sharpness, plus keeping the randomized status quo.
	candidates := []core.Candidate[cfa.Client, cfa.Decision]{
		{Name: "sharp", Policy: world.NewPolicy(0.2, rng)},
		{Name: "medium", Policy: world.NewPolicy(0.8, rng)},
		{Name: "blurry", Policy: world.NewPolicy(2.0, rng)},
		{Name: "status-quo", Policy: world.OldPolicy()},
	}

	// Fit the reward model on half the trace, select on the other half,
	// so the model cannot memorize the records it scores.
	fitHalf, evalHalf, err := data.Trace.Split(0.5)
	must(err)
	model, err := (&cfa.Data{Trace: fitHalf, World: data.World}).PerDecisionKNNModel(3)
	must(err)

	ctx := context.Background()
	view, err := core.NewTraceViewKeyedCtx(ctx, evalHalf, clientKey)
	must(err)
	ranked, err := core.SelectBest(ctx, view, model, candidates, 17, core.SelectOptions{
		Bootstrap: 200,
	})
	must(err)

	fmt.Println("\nranking (DR estimate with 95% bootstrap CI):")
	for i, r := range ranked {
		truth := data.GroundTruth(r.Candidate.Policy)
		fmt.Printf("  %d. %-10s  est %6.3f  [%6.3f, %6.3f]  ess %6.1f   (true value %6.3f)\n",
			i+1, r.Candidate.Name, r.Estimate.Value, r.Interval.Lo, r.Interval.Hi,
			r.Estimate.ESS, truth)
	}
	if core.Overlaps(ranked) {
		fmt.Println("\nthe top two intervals overlap — gather more (or more randomized) data before acting")
	} else {
		fmt.Printf("\nclear winner: deploy %q\n", ranked[0].Candidate.Name)
	}
}

// clientKey interns clients by their feature vector, which is all the
// candidate policies and the k-NN model look at.
func clientKey(c cfa.Client) string {
	return fmt.Sprint(c.Features)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
