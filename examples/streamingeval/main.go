// Streaming evaluation: watch a DR estimate converge as records arrive.
//
// A measurement pipeline rarely hands the evaluator a finished trace;
// records trickle in session by session. A core.ViewBuilder appends
// each record to a columnar store, and a core.StreamEval folds the new
// records into running doubly robust sums, so a dashboard can show the
// candidate policy's estimated value — with a standard error — at any
// moment in O(1), and an operator can stop collecting as soon as the
// interval is tight enough to act. drevald's /ingest serves streamed
// /evaluate requests the same way.
//
// Run with: go run ./examples/streamingeval
package main

import (
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func main() {
	//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
	rng := mathx.NewRNG(41)

	// World and policies as in the quickstart.
	trueReward := func(x float64, d int) float64 { return x * float64(d+1) }
	servers := []int{0, 1, 2}
	oldPolicy := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: servers,
		Epsilon:   0.3,
	}
	newPolicy := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: servers,
		Epsilon:   0.1,
	}
	// A deliberately offset model: the correction has work to do.
	model := core.RewardFunc[float64, int](func(x float64, d int) float64 {
		return trueReward(x, d) + 0.3
	})

	records := core.NewViewBuilder[float64, int]()
	acc := core.NewStreamEval[float64, int](newPolicy, model, core.StreamOptions{})
	var truth mathx.Welford // exact per-record value of the new policy

	fmt.Println("records    DR estimate    stderr     true value so far")
	const total = 20000
	for i := 0; i < total; i++ {
		// One live record arrives from the old policy.
		x := rng.Float64()
		dist := oldPolicy.Distribution(x)
		probs := make([]float64, len(dist))
		for j, w := range dist {
			probs[j] = w.Prob
		}
		pick := dist[rng.Categorical(probs)]
		err := records.Append(core.Record[float64, int]{
			Context:    x,
			Decision:   pick.Decision,
			Reward:     trueReward(x, pick.Decision) + rng.Normal(0, 0.3),
			Propensity: pick.Prob,
		})
		if err != nil {
			panic(err)
		}
		// Track what the DR estimate converges to (simulation only).
		v := 0.0
		for _, w := range newPolicy.Distribution(x) {
			v += w.Prob * trueReward(x, w.Decision)
		}
		truth.Add(v)

		if (i+1)%(total/8) == 0 {
			// Fold the records that arrived since the last report.
			if err := acc.Apply(records.Snapshot(), acc.N()); err != nil {
				panic(err)
			}
			est, err := acc.Estimates()
			if err != nil {
				panic(err)
			}
			fmt.Printf("%7d    %8.4f     ±%.4f     %8.4f\n",
				est.DR.N, est.DR.Value, est.DR.StdErr, truth.Mean())
		}
	}
}
