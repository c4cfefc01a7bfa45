package montecarlo

import (
	"math"
	"testing"

	"pride/internal/analytic"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/rng"
)

const w79 = 79

func cfg(n, periods int) LossConfig {
	return LossConfig{Entries: n, Window: w79, InsertionProb: 1.0 / w79, Periods: periods}
}

func TestSingleEntryMatchesClosedForm(t *testing.T) {
	// Fig 8: Monte-Carlo per-position loss must match Eq. 7.
	res := SimulateLoss(cfg(1, 400_000), rng.New(1), engine.Exact)
	for _, k := range []int{1, 10, 40, 70, 79} {
		got := res.PerPosition[k-1].LossProb()
		want := analytic.LossAtPosition(w79, k)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("position %d: MC loss %.4f vs closed form %.4f", k, got, want)
		}
	}
	// Worst position ~0.63, last position exactly 0.
	if got := res.PerPosition[0].LossProb(); math.Abs(got-0.63) > 0.02 {
		t.Errorf("position 1 loss = %v, want ~0.63", got)
	}
	if got := res.PerPosition[w79-1].LossProb(); got != 0 {
		t.Errorf("position W loss = %v, want 0", got)
	}
}

func TestMultiEntryNeverExceedsModel(t *testing.T) {
	// The analytical model is a worst-case bound: measured loss at any
	// position must stay below the model's overall L (Appendix C's claim).
	for _, n := range []int{2, 4, 6, 16} {
		model := analytic.LossProbability(n, w79, 1.0/w79)
		res := SimulateLoss(cfg(n, 150_000), rng.New(uint64(n)), engine.Exact)
		for k, ps := range res.PerPosition {
			resolved := ps.Evicted + ps.Mitigated
			if resolved == 0 {
				continue
			}
			// Per-position binomial noise allowance: 4.5 sigma above the
			// bound (we test 79 positions x 4 sizes, so the max-order
			// statistic needs headroom).
			tol := 4.5 * math.Sqrt(model*(1-model)/float64(resolved))
			if got := ps.LossProb(); got > model+tol {
				t.Errorf("N=%d position %d: measured loss %.4f exceeds model bound %.4f (+%.4f noise)",
					n, k+1, got, model, tol)
			}
		}
	}
}

func TestStartOccupancyMatchesMarkovChain(t *testing.T) {
	// The Appendix-A Markov chain's stationary distribution must agree
	// with the measured start-of-window occupancy histogram.
	for _, n := range []int{2, 4} {
		res := SimulateLoss(cfg(n, 300_000), rng.New(7+uint64(n)), engine.Exact)
		got := res.OccupancyDistribution()
		want := analytic.NewLossModel(n, w79, 1.0/w79).StationaryOccupancy()
		for x := 0; x < n; x++ {
			if math.Abs(got[x]-want[x]) > 0.01 {
				t.Errorf("N=%d: P(occ=%d) measured %.4f vs Markov %.4f", n, x, got[x], want[x])
			}
		}
		// Occupancy N at window start is impossible (mitigation precedes).
		if got[n] != 0 {
			t.Errorf("N=%d: start occupancy reached N with prob %v", n, got[n])
		}
	}
}

func TestPositionLossDecreasesInK(t *testing.T) {
	res := SimulateLoss(cfg(4, 300_000), rng.New(3), engine.Exact)
	// Compare quartile buckets to smooth noise.
	bucket := func(lo, hi int) float64 {
		var ev, res2 uint64
		for k := lo; k <= hi; k++ {
			ev += res.PerPosition[k-1].Evicted
			res2 += res.PerPosition[k-1].Evicted + res.PerPosition[k-1].Mitigated
		}
		return float64(ev) / float64(res2)
	}
	early, late := bucket(1, 20), bucket(60, 79)
	if early <= late {
		t.Fatalf("early-position loss %.4f not greater than late %.4f", early, late)
	}
}

func TestInsertionRateMatchesP(t *testing.T) {
	res := SimulateLoss(cfg(4, 100_000), rng.New(4), engine.Exact)
	var ins uint64
	for _, s := range res.PerPosition {
		ins += s.Insertions
	}
	total := float64(100_000 * w79)
	got := float64(ins) / total
	want := 1.0 / w79
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("insertion rate %.5f, want %.5f", got, want)
	}
}

func TestLossConfigValidation(t *testing.T) {
	bad := []LossConfig{
		{Entries: 0, Window: 79, InsertionProb: 0.1, Periods: 1},
		{Entries: 4, Window: 0, InsertionProb: 0.1, Periods: 1},
		{Entries: 4, Window: 79, InsertionProb: 0, Periods: 1},
		{Entries: 4, Window: 79, InsertionProb: 2, Periods: 1},
		{Entries: 4, Window: 79, InsertionProb: 0.1, Periods: 0},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, c)
				}
			}()
			SimulateLoss(c, rng.New(1), engine.Exact)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil rng accepted")
			}
		}()
		SimulateLoss(cfg(4, 10), nil, engine.Exact)
	}()
}

func TestRoundsFailureBelowAnalyticBound(t *testing.T) {
	// At a small TRH the failure probability is measurable; it must not
	// exceed the analytic pessimistic bound (1-p̂)^(TRH - N*W).
	n, trh := 4, 500
	r := analytic.Analyze("PrIDE", n, w79, 1.0/w79, dram.DDR5().TREFI, analytic.DefaultTargetTTFYears)
	bound := analytic.RoundFailureProb(r, float64(trh))
	res := SimulateRounds(RoundConfig{
		Entries: n, Window: w79, InsertionProb: 1.0 / w79, TRH: trh, Rounds: 40_000,
	}, rng.New(5), engine.Exact)
	got := res.FailureProb()
	if got > bound {
		t.Fatalf("measured round failure %.5f exceeds analytic bound %.5f", got, bound)
	}
	// And it must be positive at this TRH (the tracker is not magic).
	if res.Failures == 0 {
		t.Fatal("no failures at TRH=500; simulation suspiciously perfect")
	}
}

func TestRoundsFailureDecreasesWithTRH(t *testing.T) {
	probs := []float64{}
	for _, trh := range []int{100, 200, 350} {
		res := SimulateRounds(RoundConfig{
			Entries: 4, Window: w79, InsertionProb: 1.0 / w79, TRH: trh, Rounds: 30_000,
		}, rng.New(uint64(trh)), engine.Exact)
		probs = append(probs, res.FailureProb())
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] >= probs[i-1] {
			t.Fatalf("round failure prob not decreasing: %v", probs)
		}
	}
}

func TestRoundsPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateRounds(RoundConfig{Entries: 0, Window: 1, InsertionProb: 0.1, TRH: 1, Rounds: 1}, rng.New(1), engine.Exact)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := SimulateLoss(cfg(4, 20_000), rng.New(42), engine.Exact)
	b := SimulateLoss(cfg(4, 20_000), rng.New(42), engine.Exact)
	for k := range a.PerPosition {
		if a.PerPosition[k] != b.PerPosition[k] {
			t.Fatalf("position %d stats differ across identical runs", k+1)
		}
	}
}

func BenchmarkSimulateLoss1KPeriods(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		SimulateLoss(cfg(4, 1000), r, engine.Exact)
	}
}
