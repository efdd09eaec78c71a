package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"drnet/internal/traceio"
)

// The generators live here, not in the program's own packages, so a
// change to the program cannot change the inputs it is measured on.
// Every input is a pure function of the workload name and --seed.

const (
	evalRecords     = 2000   // records per /evaluate body
	wideBootstrap   = 200    // resamples per evaluate_wide_boot request
	bootstrapSeed   = 7      // options.seed of evaluate_wide_boot
	ingestPreload   = 200000 // records in the pre-built WAL
	ingestBatch     = 200    // records per /ingest body and per WAL frame
	ingestPool      = 64     // distinct /ingest bodies, sent round-robin
	ingestReadEvery = 4      // one streamed /evaluate after every 4th batch
	evalPolicy      = "best-observed"
)

var decisions = [3]string{"a", "b", "c"}

// logging propensities, permuted per context. The largest is below
// the zero-support cap's complement, so best-observed always leaves
// more than half of a narrow trace without support.
var propensities = [3]float64{0.4, 0.35, 0.25}

// evalOptions mirrors drevald's request "options" object.
type evalOptions struct {
	Clip                 float64 `json:"clip,omitempty"`
	SelfNormalize        bool    `json:"selfNormalize,omitempty"`
	EstimatePropensities bool    `json:"estimatePropensities,omitempty"`
	Bootstrap            int     `json:"bootstrap,omitempty"`
	Seed                 int64   `json:"seed,omitempty"`
	RefreshModel         bool    `json:"refreshModel,omitempty"`
}

// evalRequest mirrors drevald's /evaluate body.
type evalRequest struct {
	Trace   []traceio.FlatRecord `json:"trace"`
	Policy  string               `json:"policy"`
	Options evalOptions          `json:"options"`
}

// ingestRequest mirrors drevald's /ingest body.
type ingestRequest struct {
	Records []traceio.FlatRecord `json:"records"`
}

// newRNG derives the workload's generator from the seed; stream keeps
// the workloads' inputs independent at equal seeds.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// contextModel assigns each context a permutation of the logging
// propensities and a mean reward per decision.
type contextModel struct {
	perm [3]int
	mean [3]float64
}

func newContextModel(rng *rand.Rand) contextModel {
	var m contextModel
	p := rng.Perm(3)
	copy(m.perm[:], p)
	for k := range m.mean {
		m.mean[k] = rng.Float64()
	}
	return m
}

// record draws one logged record for a context: the decision from the
// context's logging distribution, the reward around its mean.
func (m contextModel) record(rng *rand.Rand, features []float64) traceio.FlatRecord {
	u := rng.Float64()
	k := 2
	for acc, i := 0.0, 0; i < 3; i++ {
		acc += propensities[m.perm[i]]
		if u < acc {
			k = i
			break
		}
	}
	return traceio.FlatRecord{
		Features:   features,
		Decision:   decisions[k],
		Reward:     m.mean[k] + 0.1*rng.NormFloat64(),
		Propensity: propensities[m.perm[k]],
	}
}

// gridRecords draws n records over the 8×4 grid of two-feature
// contexts: 32 distinct contexts, each seen many times.
func gridRecords(rng *rand.Rand, models []contextModel, n int) []traceio.FlatRecord {
	out := make([]traceio.FlatRecord, n)
	for i := range out {
		u := rng.IntN(len(models))
		out[i] = models[u].record(rng, []float64{float64(u % 8), float64(u / 8)})
	}
	return out
}

func gridModels(rng *rand.Rand) []contextModel {
	models := make([]contextModel, 32)
	for u := range models {
		models[u] = newContextModel(rng)
	}
	return models
}

// narrowBody is evaluate_narrow's request: 32 contexts, no bootstrap.
func narrowBody(seed uint64) []byte {
	rng := newRNG(seed, 1)
	recs := gridRecords(rng, gridModels(rng), evalRecords)
	return mustMarshal(evalRequest{Trace: recs, Policy: evalPolicy})
}

// wideBody is evaluate_wide_boot's request: every record has its own
// three-feature context, and a 200-resample bootstrap.
func wideBody(seed uint64) []byte {
	rng := newRNG(seed, 2)
	order := rng.Perm(evalRecords)
	recs := make([]traceio.FlatRecord, evalRecords)
	for i, c := range order {
		features := []float64{float64(c % 20), float64(c / 20 % 10), float64(c / 200)}
		recs[i] = newContextModel(rng).record(rng, features)
	}
	return mustMarshal(evalRequest{
		Trace:   recs,
		Policy:  evalPolicy,
		Options: evalOptions{Bootstrap: wideBootstrap, Seed: bootstrapSeed},
	})
}

// ingestInputs are ingest_stream's inputs: the WAL preload as frames
// of ingestBatch records, and the pool of /ingest bodies.
type ingestInputs struct {
	preload [][]traceio.FlatRecord
	bodies  [][]byte
	read    []byte
}

func newIngestInputs(seed uint64) ingestInputs {
	rng := newRNG(seed, 3)
	models := gridModels(rng)
	in := ingestInputs{read: mustMarshal(evalRequest{Policy: evalPolicy})}
	for i := 0; i < ingestPreload/ingestBatch; i++ {
		in.preload = append(in.preload, gridRecords(rng, models, ingestBatch))
	}
	for i := 0; i < ingestPool; i++ {
		in.bodies = append(in.bodies, mustMarshal(ingestRequest{Records: gridRecords(rng, models, ingestBatch)}))
	}
	return in
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal generated input: %v", err))
	}
	return b
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
