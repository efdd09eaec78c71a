package relay

import (
	"errors"
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

// MultiWorld extends the Figure 3 scenario to VIA's real setting: a
// call can go direct or through one of K candidate relays, each with
// its own overhead and per-AS-pair bypass effectiveness. The decision
// space is K+1 wide, which is where matching evaluators starve
// (§2.2.2) and where the relay-selection question — *which* relay, not
// just whether to relay — becomes real.
type MultiWorld struct {
	// World embeds the two-path scenario parameters (congestion, NAT).
	World
	// NumRelays is K.
	NumRelays int
	// relayOverhead[k] is relay k's fixed path stretch cost.
	relayOverhead []float64
	// relayBypass[k][pair] is the congestion fraction remaining when
	// pair routes via relay k (lower = better placed relay).
	relayBypass []map[[2]int]float64
}

// MultiPath is a decision in the multi-relay world: -1 = direct,
// 0..K-1 = relay index.
type MultiPath int

// DirectPath is the direct decision.
const DirectPath MultiPath = -1

// String implements fmt.Stringer.
func (p MultiPath) String() string {
	if p == DirectPath {
		return "direct"
	}
	return fmt.Sprintf("relay%d", int(p))
}

// DefaultMultiWorld returns a 3-relay world.
func DefaultMultiWorld() *MultiWorld {
	return &MultiWorld{World: DefaultWorld(), NumRelays: 3}
}

// Init draws congestion and per-relay placements.
func (w *MultiWorld) Init(rng *mathx.RNG) error {
	if w.NumRelays < 1 {
		return errors.New("relay: need at least one relay")
	}
	if err := w.World.Init(rng); err != nil {
		return err
	}
	w.relayOverhead = make([]float64, w.NumRelays)
	w.relayBypass = make([]map[[2]int]float64, w.NumRelays)
	for k := 0; k < w.NumRelays; k++ {
		w.relayOverhead[k] = 0.1 + 0.2*rng.Float64()
		w.relayBypass[k] = make(map[[2]int]float64)
		for a := 0; a < w.NumAS; a++ {
			for b := 0; b < w.NumAS; b++ {
				if a == b {
					continue
				}
				// Each relay is well-placed for some pairs (bypass ~0.1)
				// and poorly for others (~0.8).
				w.relayBypass[k][[2]int{a, b}] = 0.1 + 0.7*rng.Float64()
			}
		}
	}
	return nil
}

// Paths enumerates the decision space: direct plus each relay.
func (w *MultiWorld) Paths() []MultiPath {
	out := []MultiPath{DirectPath}
	for k := 0; k < w.NumRelays; k++ {
		out = append(out, MultiPath(k))
	}
	return out
}

// TrueQuality returns the expected call quality under a decision.
func (w *MultiWorld) TrueQuality(c Call, p MultiPath) float64 {
	if w.relayBypass == nil {
		panic("relay: multi world not initialized")
	}
	q := 4.5
	if w.Congested(c.SrcAS, c.DstAS) {
		pen := w.CongestionPenalty
		if p != DirectPath {
			pen *= w.relayBypass[int(p)][[2]int{c.SrcAS, c.DstAS}]
		}
		q -= pen
	}
	if p != DirectPath {
		q -= w.relayOverhead[int(p)]
	}
	if c.NAT {
		q -= w.NATPenalty
	}
	return q
}

// OldPolicy mirrors Figure 3's bias in the richer space: NAT-ed calls
// are relayed through relay 0 (the provider's legacy default), public
// calls go direct, with ε exploration across all paths.
func (w *MultiWorld) OldPolicy() core.Policy[Call, MultiPath] {
	return core.EpsilonGreedyPolicy[Call, MultiPath]{
		Base: func(c Call) MultiPath {
			if c.NAT {
				return MultiPath(0)
			}
			return DirectPath
		},
		Decisions: w.Paths(),
		Epsilon:   w.Epsilon,
	}
}

// OraclePolicy picks the best path per call (the target VIA aims for).
func (w *MultiWorld) OraclePolicy() core.Policy[Call, MultiPath] {
	return core.DeterministicPolicy[Call, MultiPath]{Choose: func(c Call) MultiPath {
		best, bestV := DirectPath, w.TrueQuality(c, DirectPath)
		for _, p := range w.Paths()[1:] {
			if v := w.TrueQuality(c, p); v > bestV {
				bestV, best = v, p
			}
		}
		return best
	}}
}

// MultiData is a collected multi-relay scenario instance.
type MultiData struct {
	Trace    core.Trace[Call, MultiPath]
	Contexts []Call
	World    *MultiWorld
}

// Collect logs n calls under the biased old policy.
func (w *MultiWorld) Collect(n int, rng *mathx.RNG) (*MultiData, error) {
	if w.relayBypass == nil {
		return nil, errors.New("relay: multi world not initialized (call Init)")
	}
	if n <= 0 {
		return nil, errors.New("relay: need at least one call")
	}
	calls := w.SampleCalls(n, rng)
	trace := core.CollectTrace(calls, w.OldPolicy(), func(c Call, p MultiPath) float64 {
		return w.TrueQuality(c, p) + rng.Normal(0, w.NoiseStd)
	}, rng)
	return &MultiData{Trace: trace, Contexts: calls, World: w}, nil
}

// GroundTruth returns the exact expected quality of a policy on the
// logged calls.
func (d *MultiData) GroundTruth(p core.Policy[Call, MultiPath]) float64 {
	return core.TrueValue(d.Contexts, p, d.World.TrueQuality)
}

// VIAModel is the NAT-blind per-(AS pair, path) mean model, as in the
// two-path world.
func (d *MultiData) VIAModel() core.RewardModel[Call, MultiPath] {
	return fitTable(d.Trace, func(c Call, p MultiPath) string {
		return fmt.Sprintf("%d-%d/%v", c.SrcAS, c.DstAS, p)
	})
}
