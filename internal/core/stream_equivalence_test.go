package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// This file locks down the streaming engine's equivalence contract
// (the ISSUE 8 satellite): aggregates folded over N ingest batches
// reproduce the view estimators on the full concatenated trace —
// bit-identically for every single-pass quantity (Value, ESS,
// MaxWeight, N, all Diagnostics fields), within tolerance for the
// two-pass ones (StdErr, self-normalized DR value) — with the batch
// side swept sequentially and at workers {1, 2, 8}.

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// streamTolerance is the documented bound for the quantities whose
// batch reduction is two-pass: Welford/co-moment algebra agrees to
// roughly 1e-12 relative on well-conditioned data; 1e-9 leaves head-
// room for the SNIPS influence expansion's cancellation.
const streamTolerance = 1e-9

// batchSplits are the ingestion schedules the fold is swept over: the
// aggregates must not depend on how the stream was chopped into
// batches.
func batchSplits(n int) [][]int {
	uneven := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var cuts []int
	at := 0
	for i := 0; at < n; i++ {
		at += uneven[i%len(uneven)] * (1 + i/len(uneven))
		if at > n {
			at = n
		}
		cuts = append(cuts, at)
	}
	return [][]int{
		{n},            // one shot
		halves(n),      // two halves
		everyK(n, 1),   // record at a time
		everyK(n, 137), // fixed odd stride
		cuts,           // growing uneven batches
	}
}

func halves(n int) []int { return []int{n / 2, n} }

func everyK(n, k int) []int {
	var out []int
	for at := k; at < n; at += k {
		out = append(out, at)
	}
	return append(out, n)
}

// foldStream pushes tr through a ViewBuilder according to the batch
// cut points and folds each prefix into fresh StreamEvals (one per
// clip option), returning the final snapshot and accumulators.
func foldStream(t *testing.T, tr Trace[float64, int], np Policy[float64, int], model RewardModel[float64, int], cuts []int) (*TraceView[float64, int], *StreamEval[float64, int], *StreamEval[float64, int]) {
	t.Helper()
	b := NewViewBuilder[float64, int]()
	se := NewStreamEval(np, model, StreamOptions{})
	seClip := NewStreamEval(np, model, StreamOptions{Clip: 3})
	prev := 0
	for _, cut := range cuts {
		for i := prev; i < cut; i++ {
			if err := b.Append(tr[i]); err != nil {
				t.Fatalf("Append record %d: %v", i, err)
			}
		}
		snap := b.Snapshot()
		if err := se.Apply(snap, prev); err != nil {
			t.Fatalf("Apply at %d: %v", prev, err)
		}
		if err := seClip.Apply(snap, prev); err != nil {
			t.Fatalf("Apply(clip) at %d: %v", prev, err)
		}
		prev = cut
	}
	return b.Snapshot(), se, seClip
}

// assertEstimate compares a streaming estimate against the batch
// reference: exact fields bitwise, StdErr within tolerance, Value
// optionally within tolerance (self-normalized DR).
func assertEstimate(t *testing.T, label string, got, want Estimate, valueExact bool) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N %d != %d", label, got.N, want.N)
	}
	if valueExact {
		if !bitsEqual(got.Value, want.Value) {
			t.Fatalf("%s: Value %v (%x) != %v (%x)", label, got.Value, math.Float64bits(got.Value), want.Value, math.Float64bits(want.Value))
		}
	} else if !closeRel(got.Value, want.Value, streamTolerance) {
		t.Fatalf("%s: Value %v !~ %v", label, got.Value, want.Value)
	}
	if !bitsEqual(got.ESS, want.ESS) {
		t.Fatalf("%s: ESS %v != %v", label, got.ESS, want.ESS)
	}
	if !bitsEqual(got.MaxWeight, want.MaxWeight) {
		t.Fatalf("%s: MaxWeight %v != %v", label, got.MaxWeight, want.MaxWeight)
	}
	if !closeRel(got.StdErr, want.StdErr, streamTolerance) {
		t.Fatalf("%s: StdErr %v !~ %v", label, got.StdErr, want.StdErr)
	}
}

func TestStreamEvalMatchesBatchEstimators(t *testing.T) {
	const n = 5000
	for shape, mk := range equivalenceCases(n) {
		tr, np, pureModel := mk(n)

		// Two frozen models: a pure function, and a table model fit on
		// the first half of the stream (drevald's registration flow).
		half := NewViewBuilder[float64, int]()
		for i := 0; i < n/2; i++ {
			if err := half.Append(tr[i]); err != nil {
				t.Fatalf("prefix Append: %v", err)
			}
		}
		tableModel := FitTableView(half.Snapshot())

		models := map[string]RewardModel[float64, int]{
			"pure":  pureModel,
			"table": tableModel,
		}
		for mname, model := range models {
			for si, cuts := range batchSplits(n) {
				v, se, seClip := foldStream(t, tr, np, model, cuts)
				got, err := se.Estimates()
				if err != nil {
					t.Fatalf("%s/%s split %d: Estimates: %v", shape, mname, si, err)
				}
				gotClip, err := seClip.Estimates()
				if err != nil {
					t.Fatalf("%s/%s split %d: Estimates(clip): %v", shape, mname, si, err)
				}

				// Batch side: sequential, then workers 1/2/8.
				for _, w := range append([]int{0}, workerCounts...) {
					threshold := 64
					if w == 0 {
						w, threshold = 1, n+1
					}
					withParallelism(t, w, threshold, func() {
						pfx := fmt.Sprintf("%s/%s split=%d workers=%d", shape, mname, si, w)

						dm, err := DirectMethodViewCtx(bg, v, np, model)
						if err != nil {
							t.Fatalf("%s DM: %v", pfx, err)
						}
						assertEstimate(t, pfx+" DM", got.DM, dm, true)

						ips, err := IPSViewCtx(bg, v, np, IPSOptions{})
						if err != nil {
							t.Fatalf("%s IPS: %v", pfx, err)
						}
						assertEstimate(t, pfx+" IPS", got.IPS, ips, true)

						ipsClip, err := IPSViewCtx(bg, v, np, IPSOptions{Clip: 3})
						if err != nil {
							t.Fatalf("%s IPS clip: %v", pfx, err)
						}
						assertEstimate(t, pfx+" IPS clip", gotClip.IPS, ipsClip, true)

						snips, err := IPSViewCtx(bg, v, np, IPSOptions{SelfNormalize: true})
						if err != nil {
							t.Fatalf("%s SNIPS: %v", pfx, err)
						}
						assertEstimate(t, pfx+" SNIPS", got.SNIPS, snips, true)

						dr, err := DoublyRobustViewCtx(bg, v, np, model, DROptions{})
						if err != nil {
							t.Fatalf("%s DR: %v", pfx, err)
						}
						assertEstimate(t, pfx+" DR", got.DR, dr, true)

						drClip, err := DoublyRobustViewCtx(bg, v, np, model, DROptions{Clip: 3})
						if err != nil {
							t.Fatalf("%s DR clip: %v", pfx, err)
						}
						assertEstimate(t, pfx+" DR clip", gotClip.DR, drClip, true)

						sndr, err := DoublyRobustViewCtx(bg, v, np, model, DROptions{SelfNormalize: true})
						if err != nil {
							t.Fatalf("%s SNDR: %v", pfx, err)
						}
						// The self-normalized value regroups the final
						// n/Σw factor: tolerance, not bits.
						assertEstimate(t, pfx+" SNDR", got.SNDR, sndr, false)

						diag, err := DiagnoseViewCtx(bg, v, np)
						if err != nil {
							t.Fatalf("%s Diagnose: %v", pfx, err)
						}
						if got.Diagnostics != diag {
							t.Fatalf("%s Diagnose: %+v != %+v", pfx, got.Diagnostics, diag)
						}
					})
				}
			}
		}
	}
}

// TestStreamEvalReplayBitExact: two accumulators fed the same records
// under different batch schedules end bit-identical in EVERY field,
// StdErr included — the property WAL replay relies on.
func TestStreamEvalReplayBitExact(t *testing.T) {
	const n = 3000
	tr, np, model := quantizedTrace(n)
	splits := batchSplits(n)
	_, ref, refClip := foldStream(t, tr, np, model, splits[0])
	want, err := ref.Estimates()
	if err != nil {
		t.Fatalf("reference Estimates: %v", err)
	}
	wantClip, err := refClip.Estimates()
	if err != nil {
		t.Fatalf("reference Estimates(clip): %v", err)
	}
	for si, cuts := range splits[1:] {
		_, se, seClip := foldStream(t, tr, np, model, cuts)
		got, err := se.Estimates()
		if err != nil {
			t.Fatalf("split %d: %v", si, err)
		}
		gotClip, err := seClip.Estimates()
		if err != nil {
			t.Fatalf("split %d (clip): %v", si, err)
		}
		if got != want {
			t.Fatalf("split %d: %+v != %+v", si, got, want)
		}
		if gotClip != wantClip {
			t.Fatalf("split %d (clip): %+v != %+v", si, gotClip, wantClip)
		}
	}
}

// TestViewBuilderSnapshotEqualsBatchView: the builder's final snapshot
// must be indistinguishable from NewTraceView over the same records.
func TestViewBuilderSnapshotEqualsBatchView(t *testing.T) {
	const n = 2000
	tr, _, _ := quantizedTrace(n)
	b := NewViewBuilder[float64, int]()
	for i, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	snap := b.Snapshot()
	want, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	if snap.Len() != want.Len() || snap.NumContexts() != want.NumContexts() || snap.NumDecisions() != want.NumDecisions() {
		t.Fatalf("shape mismatch: (%d,%d,%d) != (%d,%d,%d)",
			snap.Len(), snap.NumContexts(), snap.NumDecisions(),
			want.Len(), want.NumContexts(), want.NumDecisions())
	}
	for i := 0; i < n; i++ {
		if snap.At(i) != want.At(i) {
			t.Fatalf("record %d: %+v != %+v", i, snap.At(i), want.At(i))
		}
	}
	// The lookup closure must resolve every interned context.
	for u := 0; u < snap.NumContexts(); u++ {
		c := snap.ContextValue(u)
		if code, ok := snap.lookup(c); !ok || int(code) != u {
			t.Fatalf("lookup(%v) = (%d,%v), want (%d,true)", c, code, ok, u)
		}
	}
}

// TestViewBuilderValidationMatchesBuildView: Append's rejection text is
// byte-identical to buildView's, at the same record index.
func TestViewBuilderValidationMatchesBuildView(t *testing.T) {
	good := Record[float64, int]{Context: 0.5, Decision: 1, Reward: 1, Propensity: 0.5}
	cases := []Record[float64, int]{
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 0},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: -0.2},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 1.5},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: math.NaN()},
		{Context: 0.1, Decision: 0, Reward: math.NaN(), Propensity: 0.5},
		{Context: 0.1, Decision: 0, Reward: math.Inf(1), Propensity: 0.5},
		{Context: 0.1, Decision: 0, Reward: math.Inf(-1), Propensity: 0.5},
	}
	for ci, bad := range cases {
		// Two good records first, so the failing index is non-zero.
		tr := Trace[float64, int]{good, good, bad}
		_, wantErr := NewTraceViewCtx(bg, tr)
		if wantErr == nil {
			t.Fatalf("case %d: batch accepted bad record", ci)
		}
		b := NewViewBuilder[float64, int]()
		for i := 0; i < 2; i++ {
			if err := b.Append(good); err != nil {
				t.Fatalf("case %d: good Append: %v", ci, err)
			}
		}
		err := b.Append(bad)
		if err == nil {
			t.Fatalf("case %d: builder accepted bad record", ci)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("case %d: %q != batch %q", ci, err.Error(), wantErr.Error())
		}
		// Nothing appended: the builder still has 2 records.
		if b.Len() != 2 {
			t.Fatalf("case %d: Len %d after rejected append", ci, b.Len())
		}
	}
}

// badDistPolicy returns an invalid distribution for one context value.
type badDistPolicy struct{ bad float64 }

func (p badDistPolicy) Distribution(c float64) []Weighted[int] {
	if c == p.bad {
		return []Weighted[int]{{Decision: 0, Prob: 0.4}} // sums to 0.4
	}
	return []Weighted[int]{{Decision: 0, Prob: 0.5}, {Decision: 1, Prob: 0.5}}
}

// TestStreamEvalInvalidDistributionMatchesBatch: DM/DR surface the
// batch estimators' exact error; IPS and Diagnose stay available.
func TestStreamEvalInvalidDistributionMatchesBatch(t *testing.T) {
	tr := Trace[float64, int]{
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 0.5},
		{Context: 0.2, Decision: 1, Reward: 0, Propensity: 0.5},
		{Context: 0.3, Decision: 0, Reward: 1, Propensity: 0.5}, // the bad context, record 2
		{Context: 0.1, Decision: 1, Reward: 0, Propensity: 0.5},
	}
	np := badDistPolicy{bad: 0.3}
	model := RewardFunc[float64, int](func(c float64, d int) float64 { return c * float64(d) })

	v, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	_, wantErr := DirectMethodViewCtx(bg, v, np, model)
	if wantErr == nil {
		t.Fatal("batch DM accepted invalid distribution")
	}
	wantIPS, err := IPSViewCtx(bg, v, np, IPSOptions{})
	if err != nil {
		t.Fatalf("batch IPS: %v", err)
	}
	wantDiag, err := DiagnoseViewCtx(bg, v, np)
	if err != nil {
		t.Fatalf("batch Diagnose: %v", err)
	}

	b := NewViewBuilder[float64, int]()
	se := NewStreamEval[float64, int](np, model, StreamOptions{})
	for _, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := se.Apply(b.Snapshot(), 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := se.Estimates()
	if err == nil {
		t.Fatal("stream Estimates accepted invalid distribution")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("error %q != batch %q", err.Error(), wantErr.Error())
	}
	// The partial result still carries IPS and Diagnostics.
	assertEstimate(t, "IPS under invalid dist", got.IPS, wantIPS, true)
	if got.Diagnostics != wantDiag {
		t.Fatalf("Diagnose under invalid dist: %+v != %+v", got.Diagnostics, wantDiag)
	}
}

func TestStreamEvalApplyContract(t *testing.T) {
	tr, np, model := quantizedTrace(10)
	b := NewViewBuilder[float64, int]()
	for _, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	se := NewStreamEval(np, model, StreamOptions{})
	snap := b.Snapshot()
	if err := se.Apply(snap, 3); err == nil {
		t.Fatal("Apply accepted a gap (from=3 on a fresh accumulator)")
	}
	if err := se.Apply(snap, 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := se.Apply(snap, 5); err == nil {
		t.Fatal("Apply accepted a rewind (from=5 after folding 10)")
	}
	// Re-applying the same frontier is a no-op.
	if err := se.Apply(snap, 10); err != nil {
		t.Fatalf("Apply at frontier: %v", err)
	}
	if se.N() != 10 {
		t.Fatalf("N = %d, want 10", se.N())
	}
	if _, err := NewStreamEval(np, model, StreamOptions{}).Estimates(); err != ErrEmptyTrace {
		t.Fatalf("empty Estimates error = %v, want ErrEmptyTrace", err)
	}
}

// TestViewBuilderConcurrentSnapshotAppend runs appends and snapshot
// readers concurrently under -race: snapshots must stay internally
// consistent (codes in range, estimators runnable) while the builder
// keeps growing.
func TestViewBuilderConcurrentSnapshotAppend(t *testing.T) {
	const n = 4000
	tr, np, model := quantizedTrace(n)
	b := NewViewBuilder[float64, int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range tr {
			if err := b.Append(rec); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				snap := b.Snapshot()
				if snap.Len() == 0 {
					continue
				}
				for i := 0; i < snap.Len(); i++ {
					if snap.ContextCode(i) >= snap.NumContexts() || snap.DecisionCode(i) >= snap.NumDecisions() {
						t.Errorf("snapshot code out of range at %d", i)
						return
					}
				}
				if _, err := DoublyRobustViewCtx(bg, snap, np, model, DROptions{}); err != nil {
					t.Errorf("DR on snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the final snapshot matches the batch view.
	snap := b.Snapshot()
	want, err := NewTraceViewCtx(bg, tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	gotDR, err := DoublyRobustViewCtx(bg, snap, np, model, DROptions{})
	if err != nil {
		t.Fatalf("DR on final snapshot: %v", err)
	}
	wantDR, err := DoublyRobustViewCtx(bg, want, np, model, DROptions{})
	if err != nil {
		t.Fatalf("DR on batch view: %v", err)
	}
	if gotDR != wantDR {
		t.Fatalf("final snapshot DR %+v != batch %+v", gotDR, wantDR)
	}
}

// TestViewBuilderKeyedMatchesKeyedView mirrors the snapshot-equality
// check for the keyed constructor (drevald's featurized contexts).
func TestViewBuilderKeyedMatchesKeyedView(t *testing.T) {
	key := func(c float64) string { return fmt.Sprintf("%.3f", c) }
	const n = 1500
	tr, np, model := quantizedTrace(n)
	b := NewViewBuilderKeyed[float64, int](key)
	se := NewStreamEval(np, model, StreamOptions{})
	for i, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	snap := b.Snapshot()
	if err := se.Apply(snap, 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want, err := NewTraceViewKeyedCtx(bg, tr, key)
	if err != nil {
		t.Fatalf("NewTraceViewKeyed: %v", err)
	}
	got, err := se.Estimates()
	if err != nil {
		t.Fatalf("Estimates: %v", err)
	}
	wantDR, err := DoublyRobustViewCtx(bg, want, np, model, DROptions{})
	if err != nil {
		t.Fatalf("batch DR: %v", err)
	}
	assertEstimate(t, "keyed DR", got.DR, wantDR, true)
	wantDiag, err := DiagnoseViewCtx(bg, want, np)
	if err != nil {
		t.Fatalf("batch Diagnose: %v", err)
	}
	if got.Diagnostics != wantDiag {
		t.Fatalf("keyed Diagnose: %+v != %+v", got.Diagnostics, wantDiag)
	}
}
