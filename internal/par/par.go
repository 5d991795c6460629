// Package par is the concurrency layer of the repository: a bounded worker
// pool with deterministic, index-ordered fan-out/merge semantics. The one
// parallel stage is the offline evaluation: the degradation-scenario
// fan-out in internal/sim and the (scheme, scale) sweeps in
// internal/experiments above it both go through this package, so the
// determinism argument lives in one place. Every solve runs on its
// caller's goroutine: internal/core does not fan out, and one Optimizer
// may be called from many workers here at once.
// (Telemetry ingest, internal/ingest, is deliberately serial too: a B4 tick
// is 19 samples, far below the scale where a fan-out pays for its
// handoffs.)
// The rules:
//
//   - Work is partitioned by index; workers pull indices from a shared
//     atomic counter, so scheduling is dynamic but the unit of work a task
//     index denotes is fixed.
//   - Results are written into index-addressed slots and merged (summed,
//     concatenated, printed, ...) by the caller in index order, never in
//     completion order.
//   - Tasks must not share mutable state; a task needing randomness derives
//     a seeded sub-RNG from its index (stats.SubRNG), never a shared stream.
//
// Under those rules the output of any helper here is bit-identical for
// every parallelism level, including 1 — which is exactly what the
// equivalence tests in sim and experiments assert.
//
// The parallelism knobs on sim.Config and experiments.Options both funnel
// into Limit: values <= 0 select runtime.GOMAXPROCS(0) (the default
// everywhere), 1 forces the serial path, and larger values bound the
// worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"prete/internal/obs"
)

// metrics is the process-wide registry the pool reports into. The pool sits
// below every instrumented layer and has no per-call configuration surface,
// so — unlike the Metrics fields on core.Optimizer and sim.Config — its hook
// is a package-level pointer, installed once by the CLI (or a test) via
// SetMetrics. A nil registry (the default) keeps the fan-out entirely
// uninstrumented: not even the clock is read.
var metrics atomic.Pointer[obs.Registry]

// SetMetrics installs the registry ForEach reports into: per-batch and
// per-task counters plus a queue-wait timer (the delay between a batch's
// submission and each task's start, the backlog signal). Pass nil to turn
// instrumentation back off. Metrics are write-only and do not affect
// scheduling or results.
func SetMetrics(r *obs.Registry) { metrics.Store(r) }

// Limit resolves a Parallelism knob to a concrete worker count: values
// <= 0 mean "use the hardware", i.e. runtime.GOMAXPROCS(0).
func Limit(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n), using at most
// Limit(parallelism) concurrent workers. With an effective limit of 1 (or
// n <= 1) it degenerates to a plain loop on the calling goroutine — the
// serial path is literally the same code. ForEach returns when every call
// has completed.
//
// fn must write any result it produces into an index-addressed slot; the
// caller merges slots in index order to stay deterministic.
func ForEach(n, parallelism int, fn func(i int)) {
	if n <= 0 {
		return
	}
	reg := metrics.Load()
	reg.Counter("par.batches").Inc()
	reg.Counter("par.tasks").Add(int64(n))
	queueWait := reg.Timer("par.queue_wait")
	// All n tasks are conceptually enqueued here; each task's queue wait is
	// the delay from this point to its start. submitted is the zero time
	// when metrics are off, so the Stop calls below discard without reading
	// the clock.
	submitted := queueWait.Start()
	limit := Limit(parallelism)
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			queueWait.Stop(submitted)
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				queueWait.Stop(submitted)
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapErr computes out[i], errs[i] = fn(i) for i in [0, n) with at most
// Limit(parallelism) workers and returns the results in index order. Every
// task runs to completion (no cancellation, so the result slice is fully
// populated for the indices that succeeded); the returned error is the
// lowest-index failure, which makes error reporting independent of
// scheduling order too.
func MapErr[T any](n, parallelism int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, parallelism, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// SumVectors adds per-task partial vectors in task-index order, so the
// floating-point accumulation order — and therefore the result, bit for
// bit — is independent of which worker produced which partial. Nil
// partials (skipped tasks) are ignored. All non-nil partials must have
// length n.
func SumVectors(partials [][]float64, n int) []float64 {
	out := make([]float64, n)
	for _, p := range partials {
		for i, v := range p {
			out[i] += v
		}
	}
	return out
}
