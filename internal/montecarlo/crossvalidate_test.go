package montecarlo

import (
	"math"
	"testing"
	"testing/quick"

	"pride/internal/analytic"
	"pride/internal/engine"
	"pride/internal/rng"
)

// The DP loss model (internal/analytic) and the Monte-Carlo engine are
// independent implementations of the same stochastic process. These tests
// force them to agree across randomized configurations, not just the
// paper's defaults.

func TestCrossValidateWorstPositionLoss(t *testing.T) {
	check := func(seed uint64, nRaw, wRaw uint8) bool {
		n := int(nRaw%6) + 1
		w := int(wRaw%60) + 20
		p := 1 / float64(w)

		model := analytic.NewLossModel(n, w, p)
		// Model: P(loss | inserted at position 1), averaged over the
		// stationary start-occupancy distribution.
		want := 0.0
		pi := model.StationaryOccupancy()
		for x := 0; x < n; x++ {
			want += pi[x] * model.LossFromStart(x, 1)
		}

		res := SimulateLoss(LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 60_000,
		}, rng.New(seed), engine.Exact)
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

func TestCrossValidateOccupancyChain(t *testing.T) {
	check := func(seed uint64, nRaw, wRaw uint8) bool {
		n := int(nRaw%5) + 1
		w := int(wRaw%50) + 30
		p := 1 / float64(w)
		want := analytic.NewLossModel(n, w, p).StationaryOccupancy()
		res := SimulateLoss(LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 40_000,
		}, rng.New(seed), engine.Exact)
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

func TestCrossValidateParallelWorstPositionLoss(t *testing.T) {
	// Mirror of TestCrossValidateWorstPositionLoss for the sharded engine:
	// the parallel loss estimator must agree with the exact DP model across
	// randomized configurations. Budgets above one chunk exercise the merge
	// path; the tolerance is the same as the serial cross-check.
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

		res := lossCampaign(t, LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 60_000,
		}, seed, 4)
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

func TestCrossValidateParallelOccupancyChain(t *testing.T) {
	// The merged start-occupancy histogram of the sharded engine must still
	// match the Appendix-A Markov chain's stationary distribution.
	check := func(seed uint64, nRaw, wRaw uint8) bool {
		n := int(nRaw%5) + 1
		w := int(wRaw%50) + 30
		p := 1 / float64(w)
		want := analytic.NewLossModel(n, w, p).StationaryOccupancy()
		res := lossCampaign(t, LossConfig{
			Entries: n, Window: w, InsertionProb: p, Periods: 40_000,
		}, seed, 4)
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

func TestCrossValidateHigherInsertionProbability(t *testing.T) {
	// The models must also agree away from p = 1/W (the RFM co-designs
	// use p = 1/17 with W = 16-ish windows).
	for _, cfg := range []struct {
		n, w int
		p    float64
	}{
		{4, 16, 1.0 / 17},
		{4, 40, 1.0 / 41},
		{2, 30, 0.1},
	} {
		model := analytic.NewLossModel(cfg.n, cfg.w, cfg.p)
		pi := model.StationaryOccupancy()
		want := 0.0
		for x := 0; x < cfg.n; x++ {
			want += pi[x] * model.LossFromStart(x, 1)
		}
		res := SimulateLoss(LossConfig{
			Entries: cfg.n, Window: cfg.w, InsertionProb: cfg.p, Periods: 150_000,
		}, rng.New(uint64(cfg.n*cfg.w)), engine.Exact)
		got := res.PerPosition[0].LossProb()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("n=%d w=%d p=%.4f: MC %.4f vs DP %.4f", cfg.n, cfg.w, cfg.p, got, want)
		}
	}
}
