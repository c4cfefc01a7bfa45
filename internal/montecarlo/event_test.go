package montecarlo

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pride/internal/analytic"
	"pride/internal/engine"
	"pride/internal/rng"
)

// countingStream wraps a stream to count raw draws, pinning the event
// engine's O(insertions) draw complexity.
type countingStream struct {
	inner rng.Source
	draws atomic.Int64
}

func (c *countingStream) Uint64() uint64 {
	c.draws.Add(1)
	return c.inner.Uint64()
}

// TestLossEventBitIdenticalAtPOne is the deterministic cross-check: at
// p = 1 every slot inserts, so the event engine draws once per slot exactly
// like the exact engine, and the two must agree bit-for-bit — counters,
// attribution, and occupancy histogram.
func TestLossEventBitIdenticalAtPOne(t *testing.T) {
	c := LossConfig{Entries: 3, Window: 17, InsertionProb: 1, Periods: 5000}
	exact := SimulateLoss(c, rng.New(7), engine.Exact)
	event := SimulateLoss(c, rng.New(7), engine.Event)
	if !reflect.DeepEqual(exact, event) {
		t.Fatalf("p=1 engines diverged:\nexact %+v\nevent %+v", exact, event)
	}
}

// TestLossEventMatchesDPModel mirrors the exact engine's DP
// cross-validation: the event engine is an independent implementation of
// the same stochastic process and must agree with the analytic model across
// randomized configurations.
func TestLossEventMatchesDPModel(t *testing.T) {
	check := func(seed uint64, nRaw, wRaw uint8) bool {
		n := int(nRaw%6) + 1
		w := int(wRaw%60) + 20
		p := 1 / float64(w)

		model := analytic.NewLossModel(n, w, p)
		want := 0.0
		pi := model.StationaryOccupancy()
		for x := 0; x < n; x++ {
			want += pi[x] * model.LossFromStart(x, 1)
		}

		res := SimulateLoss(LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 60_000,
		}, rng.New(seed), engine.Event)
		s := res.PerPosition[0]
		resolved := s.Evicted + s.Mitigated
		if resolved < 200 {
			return true // too few samples at this position; skip
		}
		got := s.LossProb()
		tol := 5*math.Sqrt(want*(1-want)/float64(resolved)) + 0.02
		return math.Abs(got-want) <= tol
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLossEventOccupancyMatchesMarkovChain holds the event engine's
// start-of-window occupancy histogram to the Appendix-A stationary
// distribution, the statistic most sensitive to boundary-drain bookkeeping
// mistakes.
func TestLossEventOccupancyMatchesMarkovChain(t *testing.T) {
	check := func(seed uint64, nRaw, wRaw uint8) bool {
		n := int(nRaw%5) + 1
		w := int(wRaw%50) + 30
		p := 1 / float64(w)
		want := analytic.NewLossModel(n, w, p).StationaryOccupancy()
		res := SimulateLoss(LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 40_000,
		}, rng.New(seed), engine.Event)
		got := res.OccupancyDistribution()
		for x := 0; x < n; x++ {
			if math.Abs(got[x]-want[x]) > 0.025 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLossEventConservation pins the internal consistency invariants the
// estimator relies on, independent of any model: every window start is
// sampled exactly once, and every insertion is eventually evicted,
// mitigated, or still buffered (within Entries) at the end.
func TestLossEventConservation(t *testing.T) {
	for _, c := range []LossConfig{
		{Entries: 1, Window: 79, InsertionProb: 1.0 / 79, Periods: 30_000},
		{Entries: 4, Window: 16, InsertionProb: 1.0 / 17, Periods: 30_000},
		{Entries: 2, Window: 30, InsertionProb: 0.4, Periods: 10_000},
		{Entries: 5, Window: 25, InsertionProb: 1e-4, Periods: 50_000}, // mostly-empty: exercises the closed-form drains
	} {
		res := SimulateLoss(c, rng.New(uint64(c.Entries)), engine.Event)
		var starts uint64
		for _, s := range res.StartOccupancy {
			starts += s
		}
		if starts != uint64(c.Periods) {
			t.Errorf("%+v: %d start-occupancy samples, want %d", c, starts, c.Periods)
		}
		var ins, evict, mit uint64
		for _, s := range res.PerPosition {
			ins += s.Insertions
			evict += s.Evicted
			mit += s.Mitigated
		}
		unresolved := ins - evict - mit
		if unresolved > uint64(c.Entries) {
			t.Errorf("%+v: %d unresolved insertions exceed capacity %d", c, unresolved, c.Entries)
		}
	}
}

// TestLossEventAgreesWithExactEngine cross-validates the two engines
// directly on the statistic the paper reports (worst-position loss), using
// independent seeds and a two-estimator binomial tolerance.
func TestLossEventAgreesWithExactEngine(t *testing.T) {
	c := cfg(2, 150_000)
	exact := SimulateLoss(c, rng.New(3), engine.Exact)
	event := SimulateLoss(c, rng.New(4), engine.Event)
	a, b := exact.PerPosition[0], event.PerPosition[0]
	pa, pb := a.LossProb(), b.LossProb()
	ra, rb := float64(a.Evicted+a.Mitigated), float64(b.Evicted+b.Mitigated)
	tol := 5 * math.Sqrt(pa*(1-pa)/ra+pb*(1-pb)/rb)
	if math.Abs(pa-pb) > tol {
		t.Fatalf("worst-position loss: exact %.5f vs event %.5f (tol %.5f)", pa, pb, tol)
	}
	// Insertion totals are binomial with identical parameters.
	var ia, ib float64
	for k := range exact.PerPosition {
		ia += float64(exact.PerPosition[k].Insertions)
		ib += float64(event.PerPosition[k].Insertions)
	}
	n := float64(c.Periods * c.Window)
	p := c.InsertionProb
	sigma := math.Sqrt(n * p * (1 - p))
	if math.Abs(ia-ib) > 10*sigma {
		t.Fatalf("insertion totals: exact %v vs event %v (sigma %v)", ia, ib, sigma)
	}
}

// TestLossEventDrawComplexity pins the whole point of the engine: raw draws
// scale with insertions (one per insertion plus one overshoot per chunk),
// not with activation slots.
func TestLossEventDrawComplexity(t *testing.T) {
	c := cfg(2, 20_000) // ~20k insertions over ~1.6M slots at p=1/79
	src := &countingStream{inner: rng.NewXorShift64Star(5)}
	res := SimulateLoss(c, rng.NewStream(src), engine.Event)
	var ins int64
	for _, s := range res.PerPosition {
		ins += int64(s.Insertions)
	}
	if got := src.draws.Load(); got != ins+1 {
		t.Fatalf("event engine drew %d times for %d insertions, want insertions+1", got, ins)
	}
}

// TestRoundsEventMatchesExactDistribution compares the engines' failure
// probabilities with a two-estimator tolerance, across the closed-form edge
// cases (TRH < W: no boundary, certain failure; TRH >> W).
func TestRoundsEventMatchesExactDistribution(t *testing.T) {
	for _, rc := range []RoundConfig{
		{Entries: 2, Window: w79, InsertionProb: 1.0 / w79, TRH: 500, Rounds: 40_000},
		{Entries: 1, Window: w79, InsertionProb: 1.0 / (w79 + 1), TRH: 4999, Rounds: 20_000},
		{Entries: 4, Window: 16, InsertionProb: 1.0 / 17, TRH: 139, Rounds: 40_000},
	} {
		exact := SimulateRounds(rc, rng.New(21), engine.Exact)
		event := SimulateRounds(rc, rng.New(22), engine.Event)
		pa, pb := exact.FailureProb(), event.FailureProb()
		n := float64(rc.Rounds)
		tol := 5*math.Sqrt(pa*(1-pa)/n+pb*(1-pb)/n) + 1e-9
		if math.Abs(pa-pb) > tol {
			t.Errorf("%+v: exact failure %.5f vs event %.5f (tol %.5f)", rc, pa, pb, tol)
		}
	}
	// TRH < W: no mitigation boundary fits in the round, both engines must
	// report certain failure.
	short := RoundConfig{Entries: 2, Window: w79, InsertionProb: 0.5, TRH: w79 - 1, Rounds: 500}
	if got := SimulateRounds(short, rng.New(23), engine.Exact); got.Failures != got.Rounds {
		t.Fatalf("exact engine: %d/%d failures for TRH < W, want all", got.Failures, got.Rounds)
	}
	if got := SimulateRounds(short, rng.New(24), engine.Event); got.Failures != got.Rounds {
		t.Fatalf("event engine: %d/%d failures for TRH < W, want all", got.Failures, got.Rounds)
	}
}

// TestRoundsEventBelowAnalyticBound mirrors the exact engine's bound test.
func TestRoundsEventBelowAnalyticBound(t *testing.T) {
	rc := RoundConfig{Entries: 1, Window: w79, InsertionProb: 1.0 / w79, TRH: 1000, Rounds: 60_000}
	res := SimulateRounds(rc, rng.New(31), engine.Event)
	bound := math.Pow(1-rc.InsertionProb, float64(rc.TRH-2*rc.Window))
	if got := res.FailureProb(); got > bound {
		t.Fatalf("event round failure %.6f exceeds analytic bound %.6f", got, bound)
	}
}

// TestEventCampaignWorkerInvariance: the event engine inherits the chunk
// plan and index-derived streams, so its campaign results must be pure
// functions of (cfg, seed) — bit-identical at any worker count.
func TestEventCampaignWorkerInvariance(t *testing.T) {
	c := cfg(2, 10*4096)
	var want LossResult
	for i, workers := range []int{1, 2, 5} {
		got, err := SimulateLossCampaign(context.Background(), c, 77, CampaignOptions{
			Workers: workers, Engine: engine.Event,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event campaign at %d workers differs from 1 worker", workers)
		}
	}
}

// TestEventCampaignResumeIsBitIdentical is the event-engine version of the
// exact engine's resume guarantee.
func TestEventCampaignResumeIsBitIdentical(t *testing.T) {
	c := cfg(2, 12*4096)
	const seed = 42
	want, err := SimulateLossCampaign(context.Background(), c, seed, CampaignOptions{Workers: 1, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "loss-event.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, cancelAfter: 4}
	_, err = SimulateLossCampaign(ctx, c, seed, CampaignOptions{
		Workers: 2, Engine: engine.Event, Checkpoint: checkpointAt(path), Progress: sink,
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	got, err := SimulateLossCampaign(context.Background(), c, seed, CampaignOptions{
		Workers: 3, Engine: engine.Event, Checkpoint: checkpointAt(path),
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed event campaign differs from uninterrupted run")
	}
}

// TestEngineKeysSeparateCheckpoints: a checkpoint written under one engine
// must never resume under the other — the per-chunk results differ.
func TestEngineKeysSeparateCheckpoints(t *testing.T) {
	c := cfg(2, 8*4096)
	if LossCampaignKey(c, 1, engine.Exact) == LossCampaignKey(c, 1, engine.Event) {
		t.Fatal("loss keys identical across engines")
	}

	// Write a partial exact-engine checkpoint, then try to resume it as an
	// event campaign.
	path := filepath.Join(t.TempDir(), "loss.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, cancelAfter: 1}
	_, _ = SimulateLossCampaign(ctx, c, 7, CampaignOptions{
		Workers: 1, Engine: engine.Exact, Checkpoint: checkpointAt(path), Progress: sink,
	})
	cancel()
	_, err := SimulateLossCampaign(context.Background(), c, 7, CampaignOptions{
		Workers: 1, Engine: engine.Event, Checkpoint: checkpointAt(path),
	})
	if err == nil {
		t.Fatal("event campaign resumed an exact-engine checkpoint")
	}
}
