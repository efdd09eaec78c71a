// Sequential-vs-parallel benchmark pairs for the internal/parallel
// engine. Each pair runs the identical workload with the worker pool
// pinned to 1 (the sequential baseline) and at GOMAXPROCS; on a
// machine with >=4 cores the parallel variant of the estimator and
// bootstrap benches should run >=2x faster. Results are bit-identical
// between the members of every pair — that is the engine's contract,
// enforced by the determinism tests in internal/core and
// internal/experiments.
package drnet_test

import (
	"context"
	"testing"

	"drnet/internal/core"
	"drnet/internal/experiments"
	"drnet/internal/parallel"
)

// sequentially pins the worker pool to one worker for the duration of
// the benchmark; concurrently restores the GOMAXPROCS default. The
// estimator threshold is dropped so even mid-sized traces take the
// chunked path and the pair measures the engine, not the gate.
func sequentially(b *testing.B) {
	b.Helper()
	parallel.SetDefaultWorkers(1)
	old := core.ParallelThreshold
	core.ParallelThreshold = 1
	b.Cleanup(func() {
		parallel.SetDefaultWorkers(0)
		core.ParallelThreshold = old
	})
}

func concurrently(b *testing.B) {
	b.Helper()
	parallel.SetDefaultWorkers(0)
	old := core.ParallelThreshold
	core.ParallelThreshold = 1
	b.Cleanup(func() { core.ParallelThreshold = old })
}

func benchDR(b *testing.B) {
	tr, np, model := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DoublyRobustViewCtx(bg, v, np, model, core.DROptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorDRSequential(b *testing.B) { sequentially(b); benchDR(b) }
func BenchmarkEstimatorDRParallel(b *testing.B)   { concurrently(b); benchDR(b) }

func benchIPS(b *testing.B) {
	tr, np, _ := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IPSViewCtx(bg, v, np, core.IPSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorIPSSequential(b *testing.B) { sequentially(b); benchIPS(b) }
func BenchmarkEstimatorIPSParallel(b *testing.B)   { concurrently(b); benchIPS(b) }

func benchDM(b *testing.B) {
	tr, np, model := banditTrace(b, microN)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DirectMethodViewCtx(bg, v, np, model); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(microN*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkEstimatorDMSequential(b *testing.B) { sequentially(b); benchDM(b) }
func BenchmarkEstimatorDMParallel(b *testing.B)   { concurrently(b); benchDM(b) }

// benchBootstrap resamples a 5k-record trace 200 times, evaluating the
// IPS estimator per resample view.
func benchBootstrap(b *testing.B) {
	tr, np, _ := banditTrace(b, 5000)
	v := mustView(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci, _, err := core.Bootstrap(bg, v, func(ctx context.Context, rv *core.TraceView[float64, int]) (core.Estimate, error) {
			return core.IPSViewCtx(ctx, rv, np, core.IPSOptions{})
		}, 42, 200, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if ci.Lo >= ci.Hi {
			b.Fatalf("degenerate interval %+v", ci)
		}
	}
}

func BenchmarkBootstrapSequential(b *testing.B) { sequentially(b); benchBootstrap(b) }
func BenchmarkBootstrapParallel(b *testing.B)   { concurrently(b); benchBootstrap(b) }

// benchFigure7bRuns exercises the Monte Carlo replication loop that
// cmd/experiments parallelizes across the worker pool.
func benchFigure7bRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7b(benchRuns, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7bRunsSequential(b *testing.B) { sequentially(b); benchFigure7bRuns(b) }
func BenchmarkFigure7bRunsParallel(b *testing.B)   { concurrently(b); benchFigure7bRuns(b) }
