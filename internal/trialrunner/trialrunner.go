// Package trialrunner shards seeded, independent-trial experiments across a
// pool of worker goroutines with bit-for-bit deterministic merged output
// regardless of the worker count.
//
// The simulation workloads in this repository (Monte-Carlo loss estimation,
// attack-suite trials, time-to-fail sampling) all share the same structure:
// many independent trials, each driven by its own RNG stream, whose partial
// results combine through an order-insensitive-in-principle but
// order-fixed-in-practice merge (counter sums, running maxima with
// first-wins tie-breaking). Two rules make the output worker-count
// invariant:
//
//  1. Trial i derives its RNG stream from the experiment seed by index
//     (rng.DeriveSeed(base, i)), never from shared mutable state, so the
//     stream a trial consumes does not depend on which worker runs it or
//     when.
//  2. Partial results are merged strictly in trial order (0, 1, 2, ...),
//     never in completion order, so non-commutative details of the merge
//     (tie-breaking, float summation order) are fixed.
//
// With workers == 1 the runner executes every trial inline on the calling
// goroutine — the exact serial path, with no goroutines or channels — and
// any workers >= 2 produces bit-identical merged results.
//
// Two entry points share one pool: MapCheckpointedWorker, the core every
// campaign runs on (cancellation, panic isolation, retry, durable
// checkpoint/resume, a stable worker index for per-worker scratch), and
// MapOpts, the same pool without a checkpoint or worker index. Callers fold
// the returned results in trial order themselves.
package trialrunner

import (
	"fmt"
	"runtime"
)

// DefaultWorkers returns the default pool size: runtime.NumCPU().
func DefaultWorkers() int {
	return runtime.NumCPU()
}

// ValidateWorkers reports whether a worker count is usable. CLIs surface
// this error for their -workers flag; MapOpts and MapCheckpointedWorker
// panic on the same condition (after resolving 0 to DefaultWorkers())
// because by then it is a programmer error.
func ValidateWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("trialrunner: workers must be >= 1, got %d", workers)
	}
	return nil
}
