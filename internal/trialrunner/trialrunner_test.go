package trialrunner

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pride/internal/rng"
)

// mapAll runs trials 0..trials-1 through MapOpts on `workers` workers and
// fails the test on an error.
func mapAll[R any](tb testing.TB, workers, trials int, trial func(i int) R) []R {
	tb.Helper()
	results, err := MapOpts(context.Background(), trials, trial, nil, Options{Workers: workers})
	if err != nil {
		tb.Fatalf("workers=%d: %v", workers, err)
	}
	return results
}

// fold merges results strictly in trial order, the way the campaigns fold
// what the pool returns.
func fold[R any](results []R, merge func(acc, next R) R) R {
	acc := results[0]
	for _, r := range results[1:] {
		acc = merge(acc, r)
	}
	return acc
}

// indexed adapts a trial function to MapCheckpointedWorker's worker-indexed
// form.
func indexed[R any](trial func(i int) R) func(worker, i int) R {
	return func(_, i int) R { return trial(i) }
}

// workerCounts is the satellite-mandated determinism grid: serial, a small
// pool, and the machine's full width.
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

func TestMapReturnsResultsInTrialOrder(t *testing.T) {
	for _, workers := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := mapAll(t, workers, 100, func(i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestRunFoldsInTrialOrder(t *testing.T) {
	// A deliberately non-commutative merge (list append) over the pool's
	// results: the fold order, and hence the output, must be 0..n-1 for
	// every worker count.
	want := make([]int, 64)
	for i := range want {
		want[i] = i
	}
	for _, workers := range workerCounts() {
		got := fold(mapAll(t, workers, len(want), func(i int) []int { return []int{i} }),
			func(acc, next []int) []int { return append(acc, next...) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: fold order broken at %d: got %d", workers, i, got[i])
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// A seeded stochastic trial: each trial consumes its own derived RNG
	// stream, so the merged sum must be identical for every worker count.
	const seed, trials = 99, 200
	trial := func(i int) uint64 {
		s := rng.Derived(seed, uint64(i))
		total := uint64(0)
		for d := 0; d < 1000; d++ {
			total += s.Uint64()
		}
		return total
	}
	merge := func(a, b uint64) uint64 { return a + b }
	want := fold(mapAll(t, 1, trials, trial), merge)
	for _, workers := range workerCounts()[1:] {
		if got := fold(mapAll(t, workers, trials, trial), merge); got != want {
			t.Fatalf("workers=%d: merged sum %#x != serial %#x", workers, got, want)
		}
	}
}

func TestMapHandlesEdgeShapes(t *testing.T) {
	if got := mapAll(t, 8, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("0 trials returned %d results", len(got))
	}
	// More workers than trials: the pool must clamp, not deadlock.
	got := mapAll(t, 64, 3, func(i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestValidateWorkers(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		if err := ValidateWorkers(bad); err == nil {
			t.Errorf("workers=%d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 128} {
		if err := ValidateWorkers(good); err != nil {
			t.Errorf("workers=%d rejected: %v", good, err)
		}
	}
}

func TestDefaultWorkersMatchesNumCPU(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("DefaultWorkers() = %d, want %d", got, runtime.NumCPU())
	}
}

func TestMapPanicsOnInvalidInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	id := func(i int) int { return i }
	ctx := context.Background()
	mustPanic("MapOpts(-1 workers)", func() { MapOpts(ctx, 5, id, nil, Options{Workers: -1}) })
	mustPanic("MapOpts(-1 trials)", func() { MapOpts(ctx, -1, id, nil, Options{Workers: 1}) })
	mustPanic("MapCheckpointedWorker(-1 trials)", func() {
		MapCheckpointedWorker(ctx, -1, indexed(id), nil, Options{Workers: 1}, Checkpoint{Path: t.TempDir() + "/c"})
	})
}
