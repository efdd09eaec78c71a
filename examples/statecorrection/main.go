// World-state correction: §4.1/§4.3 of the paper, end to end.
//
// An operator's trace was logged during quiet morning hours, but the
// question is how a candidate server-selection policy would perform at
// peak. Raw DR answers the wrong question (it predicts morning-state
// rewards). The fix: collect a small calibration sample at peak, fit
// per-server transition functions between the states, transform the
// morning trace, and run DR on the corrected rewards.
//
// Run with: go run ./examples/statecorrection
package main

import (
	"context"
	"fmt"
	"sort"

	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/worldstate"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(29)
	scn := worldstate.DefaultScenario()
	must(scn.Init(rng))

	morning, err := scn.Collect(2000, worldstate.MorningHour, rng)
	must(err)
	peakCal, err := scn.Collect(200, worldstate.PeakHour, rng)
	must(err)
	fmt.Printf("morning trace: %d sessions (mean QoE %.3f)\n", len(morning.Trace), morning.Trace.MeanReward())
	fmt.Printf("peak calibration: %d sessions (mean QoE %.3f)\n\n", len(peakCal.Trace), peakCal.Trace.MeanReward())

	np := scn.NewPolicy()
	truth := core.TrueValue(morning.Contexts, np, func(c, v int) float64 {
		return scn.TrueReward(c, v, worldstate.PeakHour)
	})

	estimate := func(tr core.Trace[int, int]) float64 {
		ctx := context.Background()
		model, err := core.FitTableCtx(ctx, tr, worldstate.ServerGroup)
		must(err)
		view, err := core.NewTraceViewCtx(ctx, tr)
		must(err)
		est, err := core.DoublyRobustViewCtx(ctx, view, np, model, core.DROptions{})
		must(err)
		return est.Value
	}

	raw := estimate(morning.Trace)

	trans, err := worldstate.FitPerGroup(
		worldstate.CalibrationFromTrace(morning.Trace, worldstate.ServerGroup),
		worldstate.CalibrationFromTrace(peakCal.Trace, worldstate.ServerGroup),
	)
	must(err)
	fmt.Println("fitted morning→peak transitions per server:")
	groups := make([]string, 0, len(trans))
	for g := range trans {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Printf("  %s: reward %+.3f\n", g, trans[g].Intercept)
	}
	corrected, skipped := worldstate.TransformTraceGrouped(morning.Trace, trans, worldstate.ServerGroup)
	if skipped > 0 {
		fmt.Printf("  (%d records had no fitted transition)\n", skipped)
	}
	fixed := estimate(corrected)

	fmt.Printf("\ntrue peak-hours value of the policy: %.4f\n", truth)
	fmt.Printf("DR on the raw morning trace:         %.4f  (error %.1f%%)\n",
		raw, 100*mathx.RelativeError(truth, raw))
	fmt.Printf("DR on the state-corrected trace:     %.4f  (error %.1f%%)\n",
		fixed, 100*mathx.RelativeError(truth, fixed))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
