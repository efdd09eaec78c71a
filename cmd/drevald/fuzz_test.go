package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"drnet/internal/traceio"
)

// FuzzParseEvalRequest throws arbitrary bytes at the /evaluate request
// decoder. The contract under fuzzing: malformed input yields an error,
// never a panic, and accepted input yields a non-nil trace and policy.
func FuzzParseEvalRequest(f *testing.F) {
	// A well-formed request as the seed the mutator grows from.
	valid, err := json.Marshal(evalRequest{
		Trace: []traceio.FlatRecord{
			{Features: []float64{1}, Decision: "a", Reward: 0.5, Propensity: 0.5},
			{Features: []float64{2}, Decision: "b", Reward: 1.0, Propensity: 0.5},
		},
		Policy:  "constant:a",
		Options: evalOptions{Bootstrap: 10, Seed: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trace":[],"policy":"constant:a"}`))
	f.Add([]byte(`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":0}],"policy":"constant:a"}`))
	f.Add([]byte(`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":2}],"policy":"best-observed"}`))
	f.Add([]byte(`{"trace":null,"policy":null}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"trace":[{"features":[1e309],"decision":"a","reward":1,"propensity":0.5}],"policy":"constant:a"}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, trace, policy, err := parseEvalRequest(context.Background(), bytes.NewReader(data))
		if err != nil {
			if req != nil || trace != nil || policy != nil {
				t.Fatal("non-nil results alongside an error")
			}
			return
		}
		if req == nil || trace == nil || policy == nil {
			t.Fatal("nil results without an error")
		}
		if len(trace) == 0 {
			t.Fatal("accepted an empty trace")
		}
	})
}
