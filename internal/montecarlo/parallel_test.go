package montecarlo

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pride/internal/engine"
	"pride/internal/rng"
)

// lossCampaign runs SimulateLossCampaign on `workers` workers and fails the
// test on an error.
func lossCampaign(tb testing.TB, cfg LossConfig, seed uint64, workers int) LossResult {
	tb.Helper()
	res, err := SimulateLossCampaign(context.Background(), cfg, seed, CampaignOptions{Workers: workers})
	if err != nil {
		tb.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// workerGrid is the satellite-mandated determinism grid: serial, a small
// pool, and the machine's full width.
func workerGrid() []int {
	grid := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		grid = append(grid, n)
	}
	return grid
}

func TestSimulateLossParallelDeterministicAcrossWorkers(t *testing.T) {
	cases := []LossConfig{
		{Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 30_000},
		{Entries: 4, Window: 79, InsertionProb: 1.0 / 79, Periods: 50_000},
		{Entries: 6, Window: 40, InsertionProb: 0.05, Periods: 20_000},
		// Below one chunk: the plan degenerates to a single shard.
		{Entries: 2, Window: 30, InsertionProb: 1.0 / 30, Periods: 1000},
	}
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("N=%d_W=%d_P=%d", cfg.Entries, cfg.Window, cfg.Periods), func(t *testing.T) {
			want := lossCampaign(t, cfg, 42, 1)
			for _, workers := range workerGrid()[1:] {
				got := lossCampaign(t, cfg, 42, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d diverged from serial:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

func TestSimulateLossParallelCountersAddUp(t *testing.T) {
	cfg := LossConfig{Entries: 4, Window: 79, InsertionProb: 1.0 / 79, Periods: 40_000}
	res := lossCampaign(t, cfg, 3, 4)
	// Every simulated window contributes exactly one start-occupancy count.
	total := uint64(0)
	for _, c := range res.StartOccupancy {
		total += c
	}
	if total != uint64(cfg.Periods) {
		t.Fatalf("start-occupancy counts %d != periods %d", total, cfg.Periods)
	}
	// Each position resolves at most as many entries as it inserted.
	for k, s := range res.PerPosition {
		if s.Evicted+s.Mitigated > s.Insertions {
			t.Fatalf("position %d resolved %d of %d insertions", k+1, s.Evicted+s.Mitigated, s.Insertions)
		}
	}
}

func TestSimulateLossParallelAgreesWithSerialEstimator(t *testing.T) {
	// The sharded engine is a different RNG consumption schedule, not a
	// different estimator: its worst-position loss must agree with the
	// single-stream engine within Monte-Carlo noise.
	cfg := LossConfig{Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 120_000}
	serial := SimulateLoss(cfg, rng.New(11), engine.Exact)
	par := lossCampaign(t, cfg, 11, 4)
	a, b := serial.PerPosition[0].LossProb(), par.PerPosition[0].LossProb()
	if math.Abs(a-b) > 0.05 {
		t.Fatalf("serial %.4f and parallel %.4f estimates diverge", a, b)
	}
}

func TestSimulateLossParallelPanicsOnBadInput(t *testing.T) {
	good := LossConfig{Entries: 1, Window: 10, InsertionProb: 0.1, Periods: 100}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	bad := good
	bad.Periods = 0
	ctx := context.Background()
	mustPanic("zero periods", func() { SimulateLossCampaign(ctx, bad, 1, CampaignOptions{Workers: 1}) })
	mustPanic("negative workers", func() { SimulateLossCampaign(ctx, good, 1, CampaignOptions{Workers: -1}) })
}

func TestChunkSizesCoverBudgetExactly(t *testing.T) {
	for _, total := range []int{1, 100, 4096, 4097, 60_000, 1_000_000, 10_000_000} {
		sizes := chunkSizes(total, minLossChunkPeriods)
		sum := 0
		for _, s := range sizes {
			if s <= 0 {
				t.Fatalf("total=%d: non-positive chunk %d in %v", total, s, sizes)
			}
			sum += s
		}
		if sum != total {
			t.Fatalf("total=%d: chunks sum to %d", total, sum)
		}
		if len(sizes) > targetChunks+1 {
			t.Fatalf("total=%d: %d chunks exceeds target %d", total, len(sizes), targetChunks)
		}
	}
}
