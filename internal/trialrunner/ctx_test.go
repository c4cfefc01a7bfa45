package trialrunner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOptsMatchesMap(t *testing.T) {
	trial := func(i int) int { return i * i }
	want := mapAll(t, 3, 100, trial)
	for _, workers := range []int{1, 2, 7} {
		got, err := MapOpts(context.Background(), 100, trial, nil, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapOptsPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		results, err := MapOpts(context.Background(), 10, func(i int) int {
			if i == 4 {
				panic("boom")
			}
			return i
		}, nil, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error for panicking trial", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", workers, err)
		}
		if pe.Trial != 4 || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = trial %d value %v", workers, pe.Trial, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError carries no stack", workers)
		}
		if !strings.Contains(err.Error(), "trial 4") {
			t.Fatalf("workers=%d: error does not name the trial: %v", workers, err)
		}
		// The siblings still ran.
		for _, i := range []int{0, 3, 5, 9} {
			if results[i] != i {
				t.Fatalf("workers=%d: sibling trial %d = %d after panic", workers, i, results[i])
			}
		}
	}
}

func TestMapOptsMultiplePanicsSortedByTrial(t *testing.T) {
	_, err := MapOpts(context.Background(), 20, func(i int) int {
		if i%7 == 3 {
			panic(fmt.Sprintf("bad-%d", i))
		}
		return i
	}, nil, Options{Workers: 4})
	if err == nil {
		t.Fatal("no error")
	}
	// Joined message lists trial 3 before trial 10 before trial 17.
	msg := err.Error()
	i3, i10, i17 := strings.Index(msg, "trial 3 "), strings.Index(msg, "trial 10 "), strings.Index(msg, "trial 17 ")
	if i3 < 0 || i10 < 0 || i17 < 0 || !(i3 < i10 && i10 < i17) {
		t.Fatalf("panics not reported in trial order:\n%s", msg)
	}
}

func TestMapOptsCancellationDrains(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var completed atomic.Int64
		const trials = 200
		_, err := MapOpts(ctx, trials, func(i int) int {
			time.Sleep(200 * time.Microsecond) // give cancellation time to land mid-run
			return i
		}, func(i int, r int) error {
			if completed.Add(1) == 10 {
				cancel()
			}
			return nil
		}, Options{Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The pool stopped early: some trials never ran. In-flight trials
		// were allowed to finish, so completed >= 10.
		n := completed.Load()
		if n < 10 || n >= trials {
			t.Fatalf("workers=%d: %d trials completed after cancel at 10", workers, n)
		}
	}
}

func TestMapOptsOnDoneSerializedAndComplete(t *testing.T) {
	var mu sync.Mutex
	inHook := false
	seen := map[int]bool{}
	_, err := MapOpts(context.Background(), 64, func(i int) int { return i * 3 }, func(i int, r int) error {
		mu.Lock()
		if inHook {
			mu.Unlock()
			t.Error("onDone reentered concurrently")
			return nil
		}
		inHook = true
		mu.Unlock()
		if r != i*3 {
			t.Errorf("onDone(%d) got result %d", i, r)
		}
		mu.Lock()
		seen[i] = true
		inHook = false
		mu.Unlock()
		return nil
	}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 64 {
		t.Fatalf("onDone fired for %d/64 trials", len(seen))
	}
}

func TestMapOptsOnDoneErrorAbortsRun(t *testing.T) {
	sentinel := errors.New("disk full")
	var calls atomic.Int64
	_, err := MapOpts(context.Background(), 500, func(i int) int { return i }, func(i int, r int) error {
		if calls.Add(1) == 5 {
			return sentinel
		}
		return nil
	}, Options{Workers: 4})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the hook error", err)
	}
	if n := calls.Load(); n >= 500 {
		t.Fatalf("run did not abort: %d onDone calls", n)
	}
}

func TestMapOptsSkip(t *testing.T) {
	var ran atomic.Int64
	results, err := MapOpts(context.Background(), 10, func(i int) int {
		ran.Add(1)
		return i + 1
	}, nil, Options{Workers: 3, Skip: func(i int) bool { return i%2 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d trials, want 5", ran.Load())
	}
	for i, r := range results {
		want := 0
		if i%2 == 1 {
			want = i + 1
		}
		if r != want {
			t.Fatalf("trial %d = %d, want %d", i, r, want)
		}
	}
}

type countingObserver struct {
	starts, ends atomic.Int64
	busy         atomic.Int64
}

func (o *countingObserver) TrialStart(int)                  { o.starts.Add(1) }
func (o *countingObserver) TrialEnd(_ int, d time.Duration) { o.ends.Add(1); o.busy.Add(int64(d)) }

func TestMapOptsObserverPairsStartEnd(t *testing.T) {
	var obs countingObserver
	_, err := MapOpts(context.Background(), 40, func(i int) int {
		if i == 7 {
			panic("observed panic")
		}
		return i
	}, nil, Options{Workers: 4, Observer: &obs})
	if err == nil {
		t.Fatal("expected the panic to surface as an error")
	}
	if obs.starts.Load() != 40 || obs.ends.Load() != 40 {
		t.Fatalf("observer saw %d starts / %d ends, want 40/40 (panicked trials included)",
			obs.starts.Load(), obs.ends.Load())
	}
	if obs.busy.Load() < 0 {
		t.Fatal("negative busy time")
	}
}

func TestMapOptsWorkerIndexContract(t *testing.T) {
	// Worker indices must be stable scratch selectors: always in
	// [0, PoolSize(trials)), with trials sharing an index never running
	// concurrently. A per-worker "arena" tracks concurrent entry.
	for _, workers := range []int{1, 2, 4, 16} {
		opts := Options{Workers: workers}
		const trials = 64
		pool := opts.PoolSize(trials)
		busy := make([]atomic.Bool, pool)
		var bad atomic.Bool
		_, err := MapCheckpointedWorker(context.Background(), trials, func(worker, i int) int {
			if worker < 0 || worker >= pool {
				bad.Store(true)
				return 0
			}
			if !busy[worker].CompareAndSwap(false, true) {
				bad.Store(true) // two trials inside the same worker's arena
				return 0
			}
			time.Sleep(time.Microsecond)
			busy[worker].Store(false)
			return worker
		}, nil, opts, Checkpoint{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bad.Load() {
			t.Fatalf("workers=%d: worker index contract violated", workers)
		}
	}
}

func TestSingleWorkerSeesIndexZero(t *testing.T) {
	_, err := MapCheckpointedWorker(context.Background(), 10, func(worker, i int) int {
		if worker != 0 {
			t.Errorf("trial %d on worker %d, want 0", i, worker)
		}
		return i
	}, nil, Options{Workers: 1}, Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoolSize(t *testing.T) {
	cases := []struct {
		workers, trials, want int
	}{
		{4, 100, 4},
		{4, 2, 2}, // clamped to trials
		{1, 50, 1},
		{8, 0, 8}, // degenerate trial counts leave the pool size alone
		{3, -1, 3},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).PoolSize(c.trials); got != c.want {
			t.Errorf("PoolSize(workers=%d, trials=%d) = %d, want %d", c.workers, c.trials, got, c.want)
		}
	}
	if got := (Options{}).PoolSize(1); got != 1 {
		t.Errorf("default-workers PoolSize(1) = %d, want 1", got)
	}
}

func TestMapOptsZeroWorkersMeansDefault(t *testing.T) {
	got, err := MapOpts(context.Background(), 8, func(i int) int { return i }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[7] != 7 {
		t.Fatalf("bad results with default workers: %v", got)
	}
}
