package experiments

import (
	"context"
	"fmt"

	"drnet/internal/abr"
	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// Ablations regenerates the design-choice tables DESIGN.md calls out,
// as one Result (id "ABL"): weight clipping thresholds, SWITCH vs clip,
// self-normalization, and the k of the CFA k-NN model. The same
// quantities are exposed as benchmarks in bench_test.go; this function
// gives them the table form used by cmd/experiments.
func Ablations(runs int, seed int64) (Result, error) {
	ctx := context.TODO()
	if runs <= 0 {
		runs = 30
	}
	res := Result{
		ID:    "ABL",
		Title: "Ablations: clipping, SWITCH, self-normalization, k-NN k",
		Runs:  runs,
	}

	// --- Clipping / SWITCH / self-normalization on the Figure 7b corpus.
	// The trace is interned into one columnar view per run, shared by all
	// seven variants, so the per-record policy/model work happens once.
	type variant struct {
		name string
		eval func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], model core.RewardModel[abr.Chunk, int]) (float64, error)
	}
	variants := []variant{
		{"DR unclipped", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.DoublyRobustViewCtx(ctx, v, np, m, core.DROptions{})
			return e.Value, err
		}},
		{"DR clip 2", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.DoublyRobustViewCtx(ctx, v, np, m, core.DROptions{Clip: 2})
			return e.Value, err
		}},
		{"DR clip 8", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.DoublyRobustViewCtx(ctx, v, np, m, core.DROptions{Clip: 8})
			return e.Value, err
		}},
		{"DR clip 20", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.DoublyRobustViewCtx(ctx, v, np, m, core.DROptions{Clip: 20})
			return e.Value, err
		}},
		{"SNDR clip 8", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.DoublyRobustViewCtx(ctx, v, np, m, core.DROptions{Clip: 8, SelfNormalize: true})
			return e.Value, err
		}},
		{"SWITCH tau 8", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.SwitchDRViewCtx(ctx, v, np, m, core.SwitchOptions{Tau: 8})
			return e.Value, err
		}},
		{"SWITCH auto", func(v *core.TraceView[abr.Chunk, int], np core.Policy[abr.Chunk, int], m core.RewardModel[abr.Chunk, int]) (float64, error) {
			e, err := core.SwitchDRViewCtx(ctx, v, np, m, core.SwitchOptions{})
			return e.Value, err
		}},
	}
	errsByVariant := make([][]float64, len(variants))
	for run := 0; run < runs; run++ {
		rng := mathx.NewRNG(seed + int64(run))
		s := Figure7bScenario()
		d, err := s.CollectMany(rng, 5)
		if err != nil {
			return Result{}, err
		}
		np := d.NewPolicy(0)
		truth := d.GroundTruth(np)
		view, err := core.NewTraceViewCtx(ctx, d.Trace)
		if err != nil {
			return Result{}, err
		}
		model := core.RewardFunc[abr.Chunk, int](d.ModelReward)
		for i, v := range variants {
			val, err := v.eval(view, np, model)
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", v.name, err)
			}
			errsByVariant[i] = append(errsByVariant[i], mathx.RelativeError(truth, val))
		}
	}
	for i, v := range variants {
		res.Rows = append(res.Rows, row("F7b "+v.name, "", errsByVariant[i]))
	}

	// --- k-NN k on the Figure 7c corpus (cross-fit throughout).
	for _, k := range []int{1, 3, 5, 10} {
		var errs []float64
		for run := 0; run < runs; run++ {
			rng := mathx.NewRNG(seed + int64(run))
			w := cfa.DefaultWorld()
			if err := w.Init(rng); err != nil {
				return Result{}, err
			}
			d, err := w.Collect(1000, rng)
			if err != nil {
				return Result{}, err
			}
			np := w.NewPolicy(0.4, rng)
			truth := d.GroundTruth(np)
			v, err := core.NewTraceViewKeyedCtx(ctx, d.Trace, clientKey)
			if err != nil {
				return Result{}, err
			}
			kk := k
			fit := func(tr core.Trace[cfa.Client, cfa.Decision]) (core.RewardModel[cfa.Client, cfa.Decision], error) {
				return (&cfa.Data{Trace: tr, World: d.World}).PerDecisionKNNModel(kk)
			}
			dr, err := core.CrossFitDRViewCtx(ctx, v, np, fit, 2, core.DROptions{})
			if err != nil {
				return Result{}, err
			}
			errs = append(errs, mathx.RelativeError(truth, dr.Value))
		}
		res.Rows = append(res.Rows, row(fmt.Sprintf("F7c DR k=%d", k), "", errs))
	}
	res.Notes = append(res.Notes,
		"clipping trades correction bias for variance; SWITCH drops (rather than truncates) exploded corrections",
		"k-NN k trades model bias (large k oversmooths across feature profiles) against prediction noise (k=1)")
	return res, nil
}
