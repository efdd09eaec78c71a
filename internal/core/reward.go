package core

import "context"

// RewardModel predicts the reward r̂(c, d) of taking decision d for
// context c. It is the ingredient of the Direct Method and the control
// variate inside the Doubly Robust estimator.
type RewardModel[C any, D comparable] interface {
	Predict(c C, d D) float64
}

// RewardFunc adapts a plain function into a RewardModel.
type RewardFunc[C any, D comparable] func(c C, d D) float64

// Predict implements RewardModel.
func (f RewardFunc[C, D]) Predict(c C, d D) float64 { return f(c, d) }

// ConstantModel predicts the same reward everywhere. A useful worst-case
// (fully misspecified) reward model in tests and ablations: with it, DR
// degrades gracefully to (roughly) IPS.
type ConstantModel[C any, D comparable] struct {
	Value float64
}

// Predict implements RewardModel.
func (m ConstantModel[C, D]) Predict(C, D) float64 { return m.Value }

// TableModel predicts by lookup on a caller-supplied key derived from
// (context, decision), falling back to a default for unseen keys.
// FitTableCtx builds one from a trace by averaging observed rewards per
// key — the simplest data-driven Direct Method model.
type TableModel[C any, D comparable] struct {
	Key     func(c C, d D) string
	Values  map[string]float64
	Default float64
}

// Predict implements RewardModel.
func (m *TableModel[C, D]) Predict(c C, d D) float64 {
	if v, ok := m.Values[m.Key(c, d)]; ok {
		return v
	}
	return m.Default
}

// FitTableCtx estimates a TableModel from a trace by averaging rewards
// that share a key. The default for unseen keys is the global mean
// reward. ctx is checked once per chunk of records, so a cancelled ctx
// stops the fit within one chunk boundary and returns ctx's error
// instead of a model.
func FitTableCtx[C any, D comparable](ctx context.Context, t Trace[C, D], key func(c C, d D) string) (*TableModel[C, D], error) {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		k := key(rec.Context, rec.Decision)
		sums[k] += rec.Reward
		counts[k]++
	}
	vals := make(map[string]float64, len(sums))
	for k, s := range sums {
		vals[k] = s / float64(counts[k])
	}
	return &TableModel[C, D]{Key: key, Values: vals, Default: t.MeanReward()}, nil
}
