// Congestion-control trace replay and its endogeneity bias — the §2
// use case ("traces of packet-level events ... to benchmark TCP
// congestion control") meeting the §4.1 coupling critique.
//
// Losses are not an exogenous process: a protocol's own window pushes
// the bottleneck queue into overflow. Replaying a trace recorded under
// protocol A to benchmark protocol B therefore inherits A's loss
// pattern, not the one B would have created. The example quantifies the
// error in both directions.
//
// Run with: go run ./examples/ccreplay
package main

import (
	"fmt"

	"drnet/internal/mathx"
	"drnet/internal/tcp"
)

func main() {
	link := tcp.Link{CapacityPkts: 100, QueuePkts: 30, CrossMean: 20, CrossStd: 5}
	const rounds = 5000

	names := []string{"reno", "aggressive"}
	protos := map[string]func() tcp.Protocol{
		"reno":       func() tcp.Protocol { return &tcp.Reno{} },
		"aggressive": func() tcp.Protocol { return &tcp.Aggressive{} },
	}

	// Closed-loop ground truths on the same cross-traffic realization.
	truths := map[string]float64{}
	traces := map[string][]tcp.RoundRecord{}
	for _, name := range names {
		mk := protos[name]
		//lint:allow seedflow pedagogical fixed-seed walkthrough; reproducibility over variation
		rng := mathx.NewRNG(7)
		trace, goodput, err := tcp.RunClosedLoop(mk(), link, rounds, rng)
		if err != nil {
			panic(err)
		}
		truths[name] = goodput
		traces[name] = trace
		fmt.Printf("closed loop %-11s goodput %6.2f pkts/RTT, loss rate %.3f\n",
			name, goodput, tcp.LossRate(trace))
	}

	fmt.Println("\ntrace replay (rows: recorded under; columns: evaluated protocol)")
	for _, rec := range names {
		for _, eval := range names {
			est, err := tcp.ReplayTrace(protos[eval](), traces[rec])
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-11s → %-11s replay %6.2f   truth %6.2f   error %5.1f%%\n",
				rec, eval, est, truths[eval], 100*mathx.RelativeError(truths[eval], est))
		}
	}
	fmt.Println("\nself-replay is exact; cross-protocol replay inherits the recorder's endogenous losses")
}
