package core

import "context"

// viewTables is the per-evaluation flattening of a Policy over a
// TraceView's context dictionary. Building it costs one
// Distribution call per UNIQUE context; afterwards the per-record hot
// loops are pure array arithmetic. All float values are the exact
// floats a per-record evaluation would compute (same Distribution
// results, consumed in the same order), which is what makes the
// estimators bit-identical to that evaluation.
type viewTables[D comparable] struct {
	// k is the decision-dictionary size (row stride of the U×K tables).
	k int
	// probFirst[u*k+kc] is Prob(policy, context u, decision kc):
	// first-match semantics, 0 when the decision is outside the
	// distribution's support.
	probFirst []float64
	// probLast mirrors Diagnose's accumulation, where the LAST matching
	// entry wins.
	probLast []float64
	// argmax[u] is the decision code of the distribution's modal entry
	// (first maximum wins), or -1 when that
	// decision never appears in the trace.
	argmax []int32
	// distOff/distProb/distCode/distDec flatten each context's
	// distribution with zero-probability entries dropped (the dm loops
	// skip them): entries for context u live at [distOff[u],
	// distOff[u+1]). distCode is -1 for decisions outside the
	// dictionary; distDec keeps the decision value so arbitrary reward
	// models can still be consulted.
	distOff  []int32
	distProb []float64
	distCode []int32
	distDec  []D
	// valErr[u] is ValidateDistribution's verdict for context u (nil
	// slice when every distribution is valid).
	valErr     []error
	anyInvalid bool

	pf, pl, dp         *[]float64
	am, off, dc, stamp *[]int32
}

// buildViewTables flattens newPolicy over v's context dictionary.
// Release with (*viewTables).release once no result aliases it.
func buildViewTables[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D]) *viewTables[D] {
	numCtx, k := len(v.contexts), len(v.decisions)
	tb := &viewTables[D]{k: k}
	tb.pf = getFloats(numCtx * k)
	tb.pl = getFloats(numCtx * k)
	tb.am = getInt32s(numCtx)
	tb.off = getInt32s(numCtx + 1)
	tb.dp = getFloats(0)
	tb.dc = getInt32s(0)
	tb.stamp = getInt32s(k)

	probFirst, probLast := *tb.pf, *tb.pl
	for i := range probFirst {
		probFirst[i] = 0
		probLast[i] = 0
	}
	// stamp[kc] == u marks "decision kc already seen for context u", so
	// first-match wins in probFirst without a per-context bool slice.
	stamp := *tb.stamp
	for i := range stamp {
		stamp[i] = -1
	}
	argmax := *tb.am
	off := *tb.off
	off[0] = 0
	distProb := (*tb.dp)[:0]
	distCode := (*tb.dc)[:0]
	var distDec []D

	for u := 0; u < numCtx; u++ {
		dist := newPolicy.Distribution(v.contexts[u])
		if err := ValidateDistribution(dist); err != nil {
			if tb.valErr == nil {
				//lint:allow hotalloc validation-failure path; allocated at most once per table build
				tb.valErr = make([]error, numCtx)
			}
			tb.valErr[u] = err
			tb.anyInvalid = true
		}
		row := u * k
		for _, w := range dist {
			kc, inDict := v.decIndex[w.Decision]
			if inDict {
				if stamp[kc] != int32(u) {
					stamp[kc] = int32(u)
					probFirst[row+int(kc)] = w.Prob
				}
				probLast[row+int(kc)] = w.Prob
			}
			if w.Prob == 0 {
				continue
			}
			code := int32(-1)
			if inDict {
				code = kc
			}
			//lint:allow hotalloc appends into pooled table scratch, per unique context not per record
			distProb = append(distProb, w.Prob)
			//lint:allow hotalloc appends into pooled table scratch, per unique context not per record
			distCode = append(distCode, code)
			//lint:allow hotalloc decision dictionary grows per unique context, amortized across records
			distDec = append(distDec, w.Decision)
		}
		off[u+1] = int32(len(distProb))
		am := int32(-1)
		if len(dist) > 0 {
			best := dist[0]
			for _, w := range dist[1:] {
				if w.Prob > best.Prob {
					best = w
				}
			}
			if kc, ok := v.decIndex[best.Decision]; ok {
				am = kc
			}
		}
		argmax[u] = am
	}
	// Appends may have regrown the pooled backings; keep the grown ones.
	*tb.dp = distProb
	*tb.dc = distCode

	tb.probFirst, tb.probLast = probFirst, probLast
	tb.argmax = argmax
	tb.distOff = off
	tb.distProb = distProb
	tb.distCode = distCode
	tb.distDec = distDec
	return tb
}

func (tb *viewTables[D]) release() {
	putFloats(tb.pf)
	putFloats(tb.pl)
	putFloats(tb.dp)
	putInt32s(tb.am)
	putInt32s(tb.off)
	putInt32s(tb.dc)
	putInt32s(tb.stamp)
}

// firstInvalid returns the first position of v whose context has an
// invalid distribution under tb's policy, plus that error, or (0, nil)
// when v avoids every invalid context. Contexts are interned in
// first-occurrence order, so for a full view the first invalid
// dictionary entry is also the record-order first — exactly the record
// a sequential per-record validation would have rejected.
func firstInvalid[C any, D comparable](v *TraceView[C, D], tb *viewTables[D]) (int, error) {
	if !tb.anyInvalid {
		return 0, nil
	}
	if v.rows == nil {
		for u, err := range tb.valErr {
			if err != nil {
				return int(v.ctxFirst[u]), err
			}
		}
		return 0, nil
	}
	for j, i := range v.rows {
		if err := tb.valErr[v.ctxCodes[i]]; err != nil {
			return j, err
		}
	}
	return 0, nil
}

// modelTable snapshots a RewardModel over the view's dictionaries:
// pred[u*k+kc] is the prediction for each (context, decision) pair and
// dm[u] is the direct-method value Σ_d µ_new(d|c_u)·r̂(c_u, d),
// accumulated over the flattened distribution in its original entry
// order (bit-identical to a per-record dm loop).
type modelTable struct {
	pred []float64
	dm   []float64

	pp, pd *[]float64
}

// buildModelTable snapshots model over v's dictionaries. Models must
// be pure functions of (context, decision). A ViewTableModel fit on
// the same view is read directly from its dense cells, skipping the
// per-pair interface and map traffic.
func buildModelTable[C any, D comparable](v *TraceView[C, D], tb *viewTables[D], model RewardModel[C, D]) *modelTable {
	numCtx, k := len(v.contexts), tb.k
	//lint:allow hotalloc one table header per evaluation, released to pools by the caller
	mt := &modelTable{}
	mt.pp = getFloats(numCtx * k)
	mt.pd = getFloats(numCtx)
	pred, dm := *mt.pp, *mt.pd
	if m, ok := model.(*ViewTableModel[C, D]); ok && m.view == v {
		for u := 0; u < numCtx; u++ {
			row := u * k
			for kc := 0; kc < k; kc++ {
				pred[row+kc] = m.predictCell(row + kc)
			}
			s := 0.0
			for j := tb.distOff[u]; j < tb.distOff[u+1]; j++ {
				p := m.def
				if ci := tb.distCode[j]; ci >= 0 {
					p = m.predictCell(row + int(ci))
				}
				s += tb.distProb[j] * p
			}
			dm[u] = s
		}
	} else {
		for u := 0; u < numCtx; u++ {
			c := v.contexts[u]
			row := u * k
			for kc := 0; kc < k; kc++ {
				pred[row+kc] = model.Predict(c, v.decisions[kc])
			}
			s := 0.0
			for j := tb.distOff[u]; j < tb.distOff[u+1]; j++ {
				s += tb.distProb[j] * model.Predict(c, tb.distDec[j])
			}
			dm[u] = s
		}
	}
	mt.pred, mt.dm = pred, dm
	return mt
}

func (mt *modelTable) release() {
	putFloats(mt.pp)
	putFloats(mt.pd)
}

// ViewTableModel is the columnar counterpart of TableModel: per-
// (context, decision) mean rewards stored densely over a view's
// dictionary codes, with the fit records' mean reward as the fallback
// for unseen pairs. FitTableView builds one; the estimators recognize a
// model bound to the same view and bypass Predict's map lookups
// entirely.
//
// It is bit-identical to FitTableCtx with any key function that is
// injective per (interned context, decision) pair — e.g. drevald's
// c.Key()+"|"+d — because both accumulate per-cell sums in record
// order and share the same default.
type ViewTableModel[C any, D comparable] struct {
	view   *TraceView[C, D]
	k      int
	vals   []float64
	counts []int32
	def    float64
}

// Predict implements RewardModel.
func (m *ViewTableModel[C, D]) Predict(c C, d D) float64 {
	u, ok := m.view.lookup(c)
	if !ok {
		return m.def
	}
	kc, ok := m.view.decIndex[d]
	if !ok {
		return m.def
	}
	return m.predictCell(int(u)*m.k + int(kc))
}

func (m *ViewTableModel[C, D]) predictCell(cell int) float64 {
	if m.counts[cell] == 0 {
		return m.def
	}
	return m.vals[cell]
}

// Default returns the fallback prediction (the fit records' mean
// reward).
func (m *ViewTableModel[C, D]) Default() float64 { return m.def }

// FitTableView fits the per-(context, decision) mean-reward model over
// the view's records — the columnar FitTableCtx.
func FitTableView[C any, D comparable](v *TraceView[C, D]) *ViewTableModel[C, D] {
	// Background never cancels, so the error branch is unreachable.
	m, _ := FitTableViewCtx(context.Background(), v)
	return m
}

// FitTableViewCtx is FitTableView with cooperative cancellation: ctx is
// checked once per chunk of records.
func FitTableViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D]) (*ViewTableModel[C, D], error) {
	numCtx, k := len(v.contexts), len(v.decisions)
	m := &ViewTableModel[C, D]{
		view:   v,
		k:      k,
		vals:   make([]float64, numCtx*k),
		counts: make([]int32, numCtx*k),
	}
	n := v.Len()
	total := 0.0
	for j := 0; j < n; j++ {
		if j%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		i := v.row(j)
		cell := int(v.ctxCodes[i])*k + int(v.decCodes[i])
		m.vals[cell] += v.rewards[i]
		m.counts[cell]++
		total += v.rewards[i]
	}
	for cell, c := range m.counts {
		if c > 0 {
			m.vals[cell] /= float64(c)
		}
	}
	if n > 0 {
		m.def = total / float64(n)
	}
	return m, nil
}
