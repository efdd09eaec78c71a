package core

import (
	"fmt"
	"math"
	"sync"

	"drnet/internal/mathx"
)

// This file is the incremental-evaluation engine behind streaming
// ingestion: an appendable columnar store (ViewBuilder) plus per-policy
// running sufficient statistics (StreamEval) that answer DM/IPS/SNIPS/
// DR and Diagnose queries in O(1) from aggregates instead of O(n)
// re-scans.
//
// Equivalence contract (locked down by stream_equivalence_test.go):
// with a FROZEN reward model — the Dudík, Langford & Li (2011) regime
// the streaming DR path requires — the running aggregates reproduce
// the view estimators over the concatenated trace
//
//   - bit-identically for every quantity whose batch reduction is a
//     single in-order pass: DM/IPS/SNIPS/DR Value (non-self-normalized
//     DR), ESS, MaxWeight, N, and all Diagnostics fields; and
//   - within float tolerance for StdErr (the batch path uses two-pass
//     variance, which no O(1) state can reproduce exactly; the stream
//     uses Welford/co-moment algebra) and for the self-normalized DR
//     value (its final n/Σw factor distributes differently).
//
// Crash-replay equivalence is exact for ALL fields: two StreamEvals
// fed the same records in the same order run the same accumulator
// algebra and end in identical states, which is the WAL chaos suite's
// headline invariant.

// ViewBuilder is an appendable TraceView: records stream in via
// Append with exactly buildView's validation (same error text, same
// record indexing), and Snapshot exposes the current prefix as a
// read-only TraceView in O(U+K) — the backing columns are shared
// (append-only, so the snapshotted prefix is immutable) and only the
// small interning indexes are copied.
//
// Append and Snapshot are safe for concurrent use with each other; the
// returned views are immutable and safe to share across goroutines.
type ViewBuilder[C any, D comparable] struct {
	mu           sync.Mutex
	rewards      []float64   // guarded by mu
	propensities []float64   // guarded by mu
	ctxCodes     []int32     // guarded by mu
	decCodes     []int32     // guarded by mu
	contexts     []C         // guarded by mu
	ctxFirst     []int32     // guarded by mu
	decisions    []D         // guarded by mu
	decIndex     map[D]int32 // guarded by mu
	intern       func(C) (int32, bool)
	// copyLookup clones the context-interning index under the lock and
	// returns a lookup closure over the clone, so snapshots never read
	// a map a concurrent Append is writing.
	copyLookup func() func(C) (int32, bool)
}

// NewViewBuilder returns an empty builder interning contexts by value
// (the streaming NewTraceViewCtx).
func NewViewBuilder[C comparable, D comparable]() *ViewBuilder[C, D] {
	b := newViewBuilder[C, D]()
	index := make(map[C]int32)
	b.intern = func(c C) (int32, bool) {
		if u, ok := index[c]; ok {
			return u, false
		}
		u := int32(len(index))
		index[c] = u
		return u, true
	}
	b.copyLookup = func() func(C) (int32, bool) {
		cp := make(map[C]int32, len(index))
		for k, v := range index {
			cp[k] = v
		}
		return func(c C) (int32, bool) {
			u, ok := cp[c]
			return u, ok
		}
	}
	return b
}

// NewViewBuilderKeyed returns an empty builder interning contexts by
// key (the streaming NewTraceViewKeyedCtx). The key must be injective
// up to behavioral equivalence, exactly as for NewTraceViewKeyedCtx.
func NewViewBuilderKeyed[C any, D comparable](key func(C) string) *ViewBuilder[C, D] {
	b := newViewBuilder[C, D]()
	index := make(map[string]int32)
	b.intern = func(c C) (int32, bool) {
		k := key(c)
		if u, ok := index[k]; ok {
			return u, false
		}
		u := int32(len(index))
		index[k] = u
		return u, true
	}
	b.copyLookup = func() func(C) (int32, bool) {
		cp := make(map[string]int32, len(index))
		for k, v := range index {
			cp[k] = v
		}
		return func(c C) (int32, bool) {
			u, ok := cp[key(c)]
			return u, ok
		}
	}
	return b
}

func newViewBuilder[C any, D comparable]() *ViewBuilder[C, D] {
	return &ViewBuilder[C, D]{decIndex: make(map[D]int32)}
}

// Append validates and appends one record, returning buildView's exact
// error for invalid input (with the record's stream index). On error
// nothing is appended.
func (b *ViewBuilder[C, D]) Append(rec Record[C, D]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := len(b.rewards)
	if int64(i) >= math.MaxInt32 {
		return fmt.Errorf("core: trace length %d exceeds TraceView capacity", i+1)
	}
	// The negated comparison also rejects NaN propensities, exactly as
	// in Trace.Validate / buildView.
	if !(rec.Propensity > 0) || rec.Propensity > 1 {
		return fmt.Errorf("core: record %d has propensity %g, want (0,1]", i, rec.Propensity)
	}
	if math.IsNaN(rec.Reward) {
		return fmt.Errorf("core: record %d has NaN reward", i)
	}
	if math.IsInf(rec.Reward, 0) {
		return fmt.Errorf("core: record %d has infinite reward", i)
	}
	u, isNew := b.intern(rec.Context)
	if isNew {
		b.contexts = append(b.contexts, rec.Context)
		b.ctxFirst = append(b.ctxFirst, int32(i))
	}
	k, ok := b.decIndex[rec.Decision]
	if !ok {
		k = int32(len(b.decisions))
		b.decisions = append(b.decisions, rec.Decision)
		b.decIndex[rec.Decision] = k
	}
	b.ctxCodes = append(b.ctxCodes, u)
	b.decCodes = append(b.decCodes, k)
	b.rewards = append(b.rewards, rec.Reward)
	b.propensities = append(b.propensities, rec.Propensity)
	return nil
}

// Len returns the number of records appended so far.
func (b *ViewBuilder[C, D]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rewards)
}

// Snapshot returns the current prefix as an immutable TraceView. Cost
// is O(unique contexts + unique decisions): the record columns are
// shared with the builder (their [0, Len) prefix never changes; the
// three-index slices pin capacity so neither side can grow into the
// other's view) and only the dictionaries' index maps are copied.
func (b *ViewBuilder[C, D]) Snapshot() *TraceView[C, D] {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.rewards)
	u := len(b.contexts)
	k := len(b.decisions)
	decIndex := make(map[D]int32, k)
	for d, code := range b.decIndex {
		decIndex[d] = code
	}
	return &TraceView[C, D]{
		rewards:      b.rewards[:n:n],
		propensities: b.propensities[:n:n],
		ctxCodes:     b.ctxCodes[:n:n],
		decCodes:     b.decCodes[:n:n],
		contexts:     b.contexts[:u:u],
		ctxFirst:     b.ctxFirst[:u:u],
		decisions:    b.decisions[:k:k],
		decIndex:     decIndex,
		lookup:       b.copyLookup(),
	}
}

// StreamOptions configures a StreamEval's weighting, mirroring the
// batch estimators' knobs.
type StreamOptions struct {
	// Clip caps IPS/DR importance weights (0 disables), as in
	// IPSOptions.Clip / DROptions.Clip.
	Clip float64
}

// StreamEstimates is one O(1) read of a StreamEval's aggregates: the
// three production estimators plus the Diagnose block, over the first
// N records.
type StreamEstimates struct {
	DM          Estimate
	IPS         Estimate // plain inverse propensity scoring
	SNIPS       Estimate // self-normalized IPS
	DR          Estimate // doubly robust, frozen model
	SNDR        Estimate // self-normalized DR (value within tolerance)
	Diagnostics Diagnostics
}

// StreamEval folds streaming records into running sufficient
// statistics for ONE (policy, frozen model) pair. It is not safe for
// concurrent use — the owner serializes Apply calls (drevald holds its
// ingest lock), which also fixes the accumulation order that makes
// replay bit-exact.
type StreamEval[C any, D comparable] struct {
	policy Policy[C, D]
	model  RewardModel[C, D]
	opts   StreamOptions

	n int // records folded so far

	// Per-context tables, grown as new contexts/decisions appear. dist
	// is retained so probability rows can be extended when the decision
	// dictionary grows after the context was first seen.
	dists     [][]Weighted[D]
	dmVal     []float64   // dm[u]: Σ_d µ(d|c_u)·r̂(c_u,d), zero-prob entries dropped
	probFirst [][]float64 // probFirst[u][kc], first-match-wins (estimator weights)
	probLast  [][]float64 // probLast[u][kc], last-match-wins (Diagnose weights)
	pred      [][]float64 // pred[u][kc] = model.Predict(c_u, d_kc)
	argmaxDec []D         // modal decision (first maximum) per context
	argmaxOK  []bool      // false for empty distributions

	// First invalid policy distribution, in record order (DM/DR refuse
	// to answer, exactly like the batch estimators).
	invalidRec int
	invalidErr error

	// Estimator accumulators. Sums are in record order, so they equal
	// the batch path's in-order reductions bit for bit.
	sumDM     float64       // Σ dm[u_i]
	dmWelford mathx.Welford // DM contributions (StdErr)

	sumW, sumW2 float64 // Σw, Σw² (probFirst, clipped)
	maxW        float64
	sumWR       float64       // Σ w·r
	ipsWelford  mathx.Welford // IPS contributions w·r (StdErr)
	sumWR2      float64       // Σ (w·r)²   — SNIPS influence algebra
	sumW2R      float64       // Σ w²·r     — SNIPS influence algebra

	sumWResid   float64       // Σ w·(r − pred)
	sumDR       float64       // Σ (dm + w·resid) — the batch DR summand, in order
	drWelford   mathx.Welford // plain-DR contributions (StdErr)
	sumWResid2  float64       // Σ (w·resid)²  — SN-DR algebra
	sumDMWResid float64       // Σ dm·w·resid  — SN-DR algebra
	sumDM2      float64       // Σ dm²         — SN-DR algebra

	// Diagnose accumulators (probLast, unclipped).
	dSumW, dSumW2 float64
	dMaxW         float64
	zeroSupport   int
	matches       int
	minProp       float64
}

// NewStreamEval returns an empty accumulator for one policy and one
// FROZEN reward model. The model must be a pure function of (context,
// decision) for the lifetime of the accumulator; refitting requires a
// new StreamEval (drevald re-registers the policy fingerprint).
func NewStreamEval[C any, D comparable](policy Policy[C, D], model RewardModel[C, D], opts StreamOptions) *StreamEval[C, D] {
	return &StreamEval[C, D]{policy: policy, model: model, opts: opts, invalidRec: -1}
}

// N returns how many records have been folded in.
func (s *StreamEval[C, D]) N() int { return s.n }

// Apply folds records [from, v.Len()) of a snapshot into the
// aggregates. from must equal N() — records are folded exactly once,
// in order — and v must be a snapshot of the same logical stream the
// previous Apply calls consumed (same interning order).
func (s *StreamEval[C, D]) Apply(v *TraceView[C, D], from int) error {
	if from != s.n {
		return fmt.Errorf("core: StreamEval.Apply from %d, want %d (records fold exactly once, in order)", from, s.n)
	}
	if v.Len() < from {
		return fmt.Errorf("core: StreamEval.Apply snapshot has %d records, already folded %d", v.Len(), from)
	}
	for i := from; i < v.Len(); i++ {
		s.addRecord(v, i)
	}
	return nil
}

// ensureContext lazily builds the per-context tables for code u.
func (s *StreamEval[C, D]) ensureContext(v *TraceView[C, D], u int, recIdx int) {
	for len(s.dists) <= u {
		uc := len(s.dists)
		c := v.contexts[uc]
		dist := s.policy.Distribution(c)
		s.dists = append(s.dists, dist)
		if err := ValidateDistribution(dist); err != nil && s.invalidErr == nil {
			// Contexts are interned in record order, so the first
			// invalid context seen here is the record-order first,
			// matching viewTables.firstInvalidFull.
			s.invalidRec = recIdx
			s.invalidErr = err
		}
		// dm[u]: flattened-distribution order with zero-prob entries
		// dropped, exactly like buildModelTable's generic path.
		dm := 0.0
		for _, w := range dist {
			if w.Prob == 0 {
				continue
			}
			dm += w.Prob * s.model.Predict(c, w.Decision)
		}
		s.dmVal = append(s.dmVal, dm)
		am := false
		var amDec D
		if len(dist) > 0 {
			best := dist[0]
			for _, w := range dist[1:] {
				if w.Prob > best.Prob {
					best = w
				}
			}
			amDec, am = best.Decision, true
		}
		s.argmaxDec = append(s.argmaxDec, amDec)
		s.argmaxOK = append(s.argmaxOK, am)
		s.probFirst = append(s.probFirst, nil)
		s.probLast = append(s.probLast, nil)
		s.pred = append(s.pred, nil)
	}
}

// extendRows brings context u's probability/prediction rows up to the
// current decision-dictionary size k.
func (s *StreamEval[C, D]) extendRows(v *TraceView[C, D], u, k int) {
	row := s.probFirst[u]
	if len(row) >= k {
		return
	}
	old := len(row)
	pf := append(row, make([]float64, k-old)...)
	pl := append(s.probLast[u], make([]float64, k-old)...)
	pr := append(s.pred[u], make([]float64, k-old)...)
	c := v.contexts[u]
	for kc := old; kc < k; kc++ {
		pr[kc] = s.model.Predict(c, v.decisions[kc])
	}
	// First/last-match-wins over the stored distribution, restricted to
	// the newly-visible decision codes — the same values a fresh
	// buildViewTables would produce with the larger dictionary.
	seen := make(map[int32]bool, k-old)
	for _, w := range s.dists[u] {
		kc, ok := v.decIndex[w.Decision]
		// Codes at or above k belong to decisions this extension does
		// not cover yet; a later extension fills them.
		if !ok || int(kc) < old || int(kc) >= k {
			continue
		}
		if !seen[kc] {
			seen[kc] = true
			pf[kc] = w.Prob
		}
		pl[kc] = w.Prob
	}
	s.probFirst[u], s.probLast[u], s.pred[u] = pf, pl, pr
}

func (s *StreamEval[C, D]) addRecord(v *TraceView[C, D], i int) {
	u, kc := int(v.ctxCodes[i]), int(v.decCodes[i])
	s.ensureContext(v, u, i)
	s.extendRows(v, u, kc+1)
	r := v.rewards[i]
	p := v.propensities[i]

	// DM.
	dm := s.dmVal[u]
	s.sumDM += dm
	s.dmWelford.Add(dm)

	// IPS/DR weight: probFirst, clipped.
	w := s.probFirst[u][kc] / p
	if s.opts.Clip > 0 && w > s.opts.Clip {
		w = s.opts.Clip
	}
	s.sumW += w
	s.sumW2 += w * w
	if w > s.maxW {
		s.maxW = w
	}
	wr := w * r
	s.sumWR += wr
	s.ipsWelford.Add(wr)
	s.sumWR2 += wr * wr
	s.sumW2R += w * w * r

	resid := r - s.pred[u][kc]
	wresid := w * resid
	s.sumWResid += wresid
	s.sumDR += dm + wresid
	s.drWelford.Add(dm + wresid)
	s.sumWResid2 += wresid * wresid
	s.sumDMWResid += dm * wresid
	s.sumDM2 += dm * dm

	// Diagnose: probLast, unclipped.
	dw := s.probLast[u][kc] / p
	s.dSumW += dw
	s.dSumW2 += dw * dw
	if dw == 0 {
		s.zeroSupport++
	}
	if dw > s.dMaxW {
		s.dMaxW = dw
	}
	if s.argmaxOK[u] {
		if code, ok := v.decIndex[s.argmaxDec[u]]; ok && int(code) == kc {
			s.matches++
		}
	}
	if s.n == 0 || p < s.minProp {
		s.minProp = p
	}
	s.n++
}

// ess mirrors mathx.EffectiveSampleSize's zero guard.
func ess(sum, sumSq float64) float64 {
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// Estimates reads the aggregates in O(1). DM and DR return the batch
// estimators' invalid-distribution error when one was seen; IPS,
// SNIPS and Diagnostics are always available, exactly as in the batch
// path (which never validates distributions for them).
func (s *StreamEval[C, D]) Estimates() (StreamEstimates, error) {
	if s.n == 0 {
		return StreamEstimates{}, ErrEmptyTrace
	}
	nf := float64(s.n)
	out := StreamEstimates{}

	// Diagnostics first: always computable.
	out.Diagnostics = Diagnostics{
		N:             s.n,
		ESS:           ess(s.dSumW, s.dSumW2),
		MatchRate:     float64(s.matches) / nf,
		MeanWeight:    s.dSumW / nf,
		MaxWeight:     s.dMaxW,
		ZeroSupport:   s.zeroSupport,
		MinPropensity: s.minProp,
	}

	// IPS family: no distribution-validity gate in the batch path.
	essW := ess(s.sumW, s.sumW2)
	out.IPS = Estimate{
		Value:     s.sumWR / nf,
		StdErr:    s.ipsWelford.StdErr(),
		N:         s.n,
		ESS:       essW,
		MaxWeight: s.maxW,
	}
	snips := Estimate{N: s.n, ESS: essW, MaxWeight: s.maxW}
	if s.sumW != 0 {
		snips.Value = s.sumWR / s.sumW
	}
	if wbar := s.sumW / nf; wbar > 0 && s.n > 1 {
		// Influence function infl_i = w_i(r_i − V)/w̄ expanded into the
		// tracked co-moments: Σinfl and Σinfl² give its variance.
		v := snips.Value
		sInfl := (s.sumWR - v*s.sumW) / wbar
		sInfl2 := (s.sumWR2 - 2*v*s.sumW2R + v*v*s.sumW2) / (wbar * wbar)
		varInfl := (sInfl2 - sInfl*sInfl/nf) / (nf - 1)
		if varInfl > 0 {
			snips.StdErr = math.Sqrt(varInfl) / math.Sqrt(nf)
		}
	}
	out.SNIPS = snips

	if s.invalidErr != nil {
		err := fmt.Errorf("record %d: %w", s.invalidRec, s.invalidErr)
		return out, err
	}

	out.DM = Estimate{
		Value:  s.sumDM / nf,
		StdErr: s.dmWelford.StdErr(),
		N:      s.n,
		ESS:    nf, // DM uses no weights: ESS = N, as in summarizeContributions
	}
	out.DR = Estimate{
		Value:     s.sumDR / nf,
		StdErr:    s.drWelford.StdErr(),
		N:         s.n,
		ESS:       essW,
		MaxWeight: s.maxW,
	}
	// Self-normalized DR: contrib_i = dm_i + (n/norm)·w_i·resid_i. The
	// value and variance follow from the co-moments; the regrouped sum
	// is algebraically equal to the batch mean but not bit-identical.
	norm := nf
	if s.sumW > 0 {
		norm = s.sumW
	}
	c := nf / norm
	sndr := Estimate{N: s.n, ESS: essW, MaxWeight: s.maxW}
	sndr.Value = (s.sumDM + c*s.sumWResid) / nf
	if s.n > 1 {
		sumC := s.sumDM + c*s.sumWResid
		sumC2 := s.sumDM2 + 2*c*s.sumDMWResid + c*c*s.sumWResid2
		varC := (sumC2 - sumC*sumC/nf) / (nf - 1)
		if varC > 0 {
			sndr.StdErr = math.Sqrt(varC) / math.Sqrt(nf)
		}
	}
	out.SNDR = sndr
	return out, nil
}
