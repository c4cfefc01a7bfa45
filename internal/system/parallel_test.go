package system

import (
	"context"
	"runtime"
	"testing"

	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
)

// mttfCampaign runs MeasureMTTFCampaign on the exact engine on `workers`
// workers and fails the test on an error.
func mttfCampaign(tb testing.TB, cfg Config, s sim.Scheme, trials int, seed uint64, workers int) (float64, int) {
	tb.Helper()
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, s, trials, seed, CampaignOptions{Workers: workers})
	if err != nil {
		tb.Fatalf("workers=%d: %v", workers, err)
	}
	return mean, failed
}

// serialMTTF is the reference sampler the campaign is held to: trial t
// runs Run under rng.DeriveSeed(seed, t), one trial after another on
// the calling goroutine, and the mean is taken over the failing trials.
func serialMTTF(cfg Config, s sim.Scheme, trials int, seed uint64, eng engine.Kind) (meanSeconds float64, failed int) {
	total := 0.0
	for t := 0; t < trials; t++ {
		if res := Run(cfg, s, rng.DeriveSeed(seed, uint64(t)), eng); res.Failed {
			failed++
			total += res.TimeToFail.Seconds()
		}
	}
	if failed == 0 {
		return 0, 0
	}
	return total / float64(failed), failed
}

func sysWorkerGrid() []int {
	grid := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		grid = append(grid, n)
	}
	return grid
}

func TestMeasureMTTFParallelDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	wantMean, wantFailed := mttfCampaign(t, cfg, sim.PrIDEScheme(), 8, 11, 1)
	if wantFailed == 0 {
		t.Fatal("no failures at TRH=150; cannot exercise the merge path")
	}
	for _, workers := range sysWorkerGrid()[1:] {
		mean, failed := mttfCampaign(t, cfg, sim.PrIDEScheme(), 8, 11, workers)
		if mean != wantMean || failed != wantFailed {
			t.Fatalf("workers=%d: (%.17g, %d) != serial (%.17g, %d)",
				workers, mean, failed, wantMean, wantFailed)
		}
	}
}

func TestMeasureMTTFParallelAgreesWithSerialSampler(t *testing.T) {
	// Same index-derived trial seeds, same estimator: the serial sampler and
	// the worker pool must agree bit for bit, not just statistically.
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 120, MaxTREFI: 40_000}
	serialMean, serialFailed := serialMTTF(cfg, sim.PrIDEScheme(), 8, 23, engine.Exact)
	parMean, parFailed := mttfCampaign(t, cfg, sim.PrIDEScheme(), 8, 23, 4)
	if serialFailed < 6 {
		t.Fatalf("insufficient failures: serial %d", serialFailed)
	}
	if serialMean != parMean || serialFailed != parFailed {
		t.Fatalf("serial (%.17g, %d) != parallel (%.17g, %d)",
			serialMean, serialFailed, parMean, parFailed)
	}
}

func TestMeasureMTTFParallelPanicsOnZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 trials did not panic")
		}
	}()
	MeasureMTTFCampaign(context.Background(), Config{Params: sysParams(), Banks: 1, TRH: 100, MaxTREFI: 10},
		sim.PrIDEScheme(), 0, 1, CampaignOptions{Workers: 1})
}
