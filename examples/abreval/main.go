// ABR evaluation end-to-end: the paper's Figure 2 / Figure 7b story.
//
// A video provider logs sessions under a buffer-based (BBA) bitrate
// policy. The observed per-chunk throughput is b·p(r): low bitrates
// under-report the path capacity because TCP never exits slow start on
// small chunks. The provider then wants to know — offline — how a more
// aggressive MPC policy would have performed.
//
// The FastMPC-style evaluator (a Direct Method that assumes throughput
// is bitrate-independent) systematically underestimates the new policy;
// the Doubly Robust estimator corrects it using the chunks where the
// logging policy happened to explore the same bitrate.
//
// Run with: go run ./examples/abreval
package main

import (
	"context"
	"fmt"

	"drnet/internal/abr"
	"drnet/internal/core"
	"drnet/internal/experiments"
	"drnet/internal/mathx"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(11)
	scn := experiments.Figure7bScenario()
	fmt.Println(scn)

	data, err := scn.CollectMany(rng, 5)
	must(err)
	fmt.Printf("logged %d chunks over 5 sessions\n", len(data.Trace))
	counts := data.Trace.DecisionCounts()
	fmt.Printf("bitrate usage under BBA: %v\n\n", counts)

	newPolicy := data.NewPolicy(0)
	ctx := context.Background()
	view, err := core.NewTraceViewCtx(ctx, data.Trace)
	must(err)
	diag, err := core.DiagnoseViewCtx(ctx, view, newPolicy)
	must(err)
	fmt.Printf("overlap with the MPC policy: %s\n\n", diag)

	truth := data.GroundTruth(newPolicy)
	model := core.RewardFunc[abr.Chunk, int](data.ModelReward)

	dm, err := core.DirectMethodViewCtx(ctx, view, newPolicy, model)
	must(err)
	dr, err := core.DoublyRobustViewCtx(ctx, view, newPolicy, model, core.DROptions{Clip: 8})
	must(err)

	fmt.Printf("ground truth per-chunk QoE of MPC: %8.4f\n", truth)
	fmt.Printf("FastMPC-style evaluator (DM):      %8.4f  (error %.1f%%)\n",
		dm.Value, 100*mathx.RelativeError(truth, dm.Value))
	fmt.Printf("Doubly Robust:                     %8.4f  (error %.1f%%)\n",
		dr.Value, 100*mathx.RelativeError(truth, dr.Value))

	// Show the Figure 2 mechanism on one concrete chunk: the model's
	// prediction vs the truth at the top bitrate.
	top := len(data.Ladder) - 1
	for _, c := range data.Contexts {
		if c.Index == 20 {
			fmt.Printf("\nchunk 20: predictor says %.0f Kbps, but at bitrate %d the path would deliver %.0f Kbps\n",
				c.PredictedKbps, top, scn.Config.Observation.Observe(scn.BandwidthKbps, top))
			fmt.Printf("  model reward at top bitrate: %7.3f\n", data.ModelReward(c, top))
			fmt.Printf("  true reward at top bitrate:  %7.3f\n", data.TrueReward(c, top))
			break
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
