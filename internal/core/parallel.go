package core

import (
	"context"

	"drnet/internal/parallel"
)

// ParallelThreshold is the trace length at or above which the
// estimators (DirectMethod, IPS, DoublyRobust) compute their per-record
// contributions on the shared worker pool; shorter traces run the plain
// sequential loop. The two paths are bit-identical — contributions are
// written by record index and summarized in index order either way — so
// the threshold is purely a scheduling knob: below it the pool's
// goroutine overhead outweighs the win. Tests lower it to exercise the
// parallel path on small traces; it is not meant to be mutated while
// estimators are running.
var ParallelThreshold = 4096

// estimatorGrain is the chunk size for per-record estimator loops:
// large enough to amortize chunk dispatch, small enough to load-balance
// uneven policy evaluation costs across workers.
const estimatorGrain = 2048

// forEachRecordCtx runs fn over [0, n) — sequentially below
// ParallelThreshold, chunked on the worker pool at or above it. fn must
// be index-pure (it writes per-record outputs by index); errors surface
// exactly as in a sequential scan (lowest record first). A cancelled
// ctx stops the parallel path at the next chunk boundary and the
// sequential path before it starts; an un-cancelled ctx changes
// nothing.
func forEachRecordCtx(ctx context.Context, n int, fn func(lo, hi int) error) error {
	if n < ParallelThreshold {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(0, n)
	}
	return parallel.ForEachCtx(ctx, n, 0, estimatorGrain, fn)
}
