package sim

import (
	"math"
	"testing"

	"pride/internal/analytic"
	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/tracker"
)

func simParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	return p
}

func attackCfg(acts int) AttackConfig {
	return AttackConfig{Params: simParams(), ACTs: acts}
}

func TestPrIDEBoundsDisturbanceUnderSingleSided(t *testing.T) {
	// A single-sided attack for several tREFW-scale windows: PrIDE's max
	// disturbance must stay below its analytic TRH* (3.83K); the paper
	// measures ~1.3K across its full suite.
	res := RunAttack(attackCfg(400_000), PrIDEScheme(), patterns.SingleSided(2000), 1, engine.Exact)
	trh := analytic.EvaluateScheme(analytic.SchemePrIDE, simParams(), analytic.DefaultTargetTTFYears)
	if float64(res.MaxDisturbance) > trh.TRHStar {
		t.Fatalf("PrIDE max disturbance %d exceeds analytic TRH* %.0f", res.MaxDisturbance, trh.TRHStar)
	}
	if res.Mitigations == 0 {
		t.Fatal("no mitigations dispatched")
	}
}

func TestPrIDEBoundsDisturbanceUnderTRRespass(t *testing.T) {
	res := RunAttack(attackCfg(400_000), PrIDEScheme(), patterns.TRRespass(1000, 40, 3), 2, engine.Exact)
	trh := analytic.EvaluateScheme(analytic.SchemePrIDE, simParams(), analytic.DefaultTargetTTFYears)
	if float64(res.MaxDisturbance) > trh.TRHStar {
		t.Fatalf("PrIDE under TRRespass: disturbance %d exceeds TRH* %.0f", res.MaxDisturbance, trh.TRHStar)
	}
}

// blacksmithBreaker is the crafted frequency-domain pattern our suite uses
// to demonstrate the Fig 15 breaks: high- and low-frequency aggressor pairs
// plus decoys, which keeps frequency-ranked trackers chasing the wrong rows.
func blacksmithBreaker() *patterns.Pattern {
	return patterns.Blacksmith(patterns.BlacksmithConfig{
		Base: 1000, Pairs: 8, Period: 32,
		Frequencies: []int{2, 2, 4, 4, 8, 8, 16, 16},
		Phases:      []int{0, 1, 0, 2, 0, 4, 0, 8},
		Amplitudes:  []int{4, 4, 2, 2, 1, 1, 1, 1},
		DecoyRows:   []int{3000, 3010, 3020, 3030},
	})
}

func TestCraftedPatternsBreakPRoHITButNotPrIDE(t *testing.T) {
	// The Fig 15 shape: against crafted patterns, PRoHIT's counter-driven
	// ranking starves the true aggressors (disturbance grows linearly
	// with attack duration — unbounded), while PrIDE's disturbance stays
	// flat and below its analytic TRH*.
	trh := analytic.EvaluateScheme(analytic.SchemePrIDE, simParams(), analytic.DefaultTargetTTFYears)
	for _, pat := range []*patterns.Pattern{
		blacksmithBreaker(),
		patterns.CounterStarver(1000, 30, 10, 40, 1),
	} {
		short := RunAttack(attackCfg(300_000), fig15ByName(t, "PRoHIT"), pat, 3, engine.Exact)
		long := RunAttack(attackCfg(600_000), fig15ByName(t, "PRoHIT"), pat, 3, engine.Exact)
		pride := RunAttack(attackCfg(600_000), PrIDEScheme(), pat, 3, engine.Exact)
		if long.MaxDisturbance <= 2*pride.MaxDisturbance {
			t.Errorf("%s: PRoHIT disturbance %d not clearly worse than PrIDE %d",
				pat.Name, long.MaxDisturbance, pride.MaxDisturbance)
		}
		// Unbounded growth: doubling the attack length nearly doubles
		// PRoHIT's worst disturbance (the aggressors are simply never
		// mitigated), while PrIDE's stays flat.
		if float64(long.MaxDisturbance) < 1.5*float64(short.MaxDisturbance) {
			t.Errorf("%s: PRoHIT disturbance did not grow with runtime (%d -> %d)",
				pat.Name, short.MaxDisturbance, long.MaxDisturbance)
		}
		if float64(pride.MaxDisturbance) > trh.TRHStar {
			t.Errorf("%s: PrIDE disturbance %d exceeds TRH* %.0f",
				pat.Name, pride.MaxDisturbance, trh.TRHStar)
		}
	}
}

func TestPrIDEDisturbanceIsPatternIndependent(t *testing.T) {
	// The paper's central claim (Fig 1c): PrIDE's worst-case behaviour
	// does not depend on the access pattern. Across wildly different
	// attack families, PrIDE's max disturbance stays in a narrow band,
	// while the counter-driven PRoHIT's spans an order of magnitude.
	pats := []*patterns.Pattern{
		patterns.SingleSided(4000),
		patterns.TRRespass(1000, 40, 3),
		blacksmithBreaker(),
		patterns.CounterStarver(1000, 30, 10, 40, 1),
	}
	spread := func(s Scheme) (lo, hi int) {
		lo = 1 << 30
		for i, pat := range pats {
			res := RunAttack(attackCfg(400_000), s, pat, 100+uint64(i), engine.Exact)
			if res.MaxDisturbance < lo {
				lo = res.MaxDisturbance
			}
			if res.MaxDisturbance > hi {
				hi = res.MaxDisturbance
			}
		}
		return lo, hi
	}
	pLo, pHi := spread(PrIDEScheme())
	if float64(pHi) > 3.0*float64(pLo) {
		t.Fatalf("PrIDE disturbance spread [%d,%d] too pattern-dependent", pLo, pHi)
	}
	cLo, cHi := spread(fig15ByName(t, "PRoHIT"))
	if float64(cHi) < 5.0*float64(cLo) {
		t.Fatalf("PRoHIT disturbance spread [%d,%d] unexpectedly pattern-independent", cLo, cHi)
	}
}

func fig15ByName(t *testing.T, name string) Scheme {
	t.Helper()
	for _, s := range Fig15Schemes() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scheme %s not in Fig15Schemes", name)
	return Scheme{}
}

func TestFig15SchemeLineup(t *testing.T) {
	want := []string{"PRoHIT", "DSAC", "PARA-MC", "PARFM", "PrIDE", "PrIDE+RFM40", "PrIDE+RFM16"}
	got := Fig15Schemes()
	if len(got) != len(want) {
		t.Fatalf("schemes = %d, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("scheme[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestRFMReducesDisturbance(t *testing.T) {
	// Fig 15: PrIDE ~1.3K, RFM40 ~566, RFM16 ~266. Assert the ordering
	// and rough magnitudes under a hostile suite subset.
	suite := patterns.Fig15Suite(4096, 12, 11)
	cfg := attackCfg(150_000)
	base := suiteCampaign(t, cfg, PrIDEScheme(), suite, 2, 101, 1)
	rfm40 := suiteCampaign(t, cfg, PrIDERFMScheme(40), suite, 2, 102, 1)
	rfm16 := suiteCampaign(t, cfg, PrIDERFMScheme(16), suite, 2, 103, 1)
	if !(rfm16.MaxDisturbance < rfm40.MaxDisturbance && rfm40.MaxDisturbance < base.MaxDisturbance) {
		t.Fatalf("disturbance ordering violated: RFM16 %d, RFM40 %d, PrIDE %d",
			rfm16.MaxDisturbance, rfm40.MaxDisturbance, base.MaxDisturbance)
	}
	// Magnitude: PrIDE's worst disturbance stays under its TRH* of ~3.8K
	// and typically lands near the paper's 1.3K.
	if base.MaxDisturbance > 3830 {
		t.Fatalf("PrIDE suite disturbance %d exceeds TRH*", base.MaxDisturbance)
	}
}

func TestPRoHITExceedsPrIDEOnSuite(t *testing.T) {
	// Fig 15's headline, over the randomized suite: the pattern-dependent
	// tracker's worst case is much worse than PrIDE's.
	suite := patterns.Fig15Suite(4096, 9, 13)
	suite = append(suite, blacksmithBreaker())
	cfg := attackCfg(200_000)
	pride := suiteCampaign(t, cfg, PrIDEScheme(), suite, 1, 7, 1)
	res := suiteCampaign(t, cfg, fig15ByName(t, "PRoHIT"), suite, 1, 7, 1)
	if res.MaxDisturbance <= pride.MaxDisturbance {
		t.Errorf("PRoHIT suite disturbance %d not worse than PrIDE's %d",
			res.MaxDisturbance, pride.MaxDisturbance)
	}
}

func TestHalfDoubleDefeatedByMitigationLevels(t *testing.T) {
	// Transitive attack: hammering far aggressors (distance 2) drives
	// mitigations whose silent refreshes hammer the distance-1 rows'
	// neighbours. PrIDE's multi-level re-insertion caps the victim's
	// hammer count; a PrIDE WITHOUT transitive protection lets it grow.
	pat := patterns.HalfDouble(2000, 16)
	cfg := AttackConfig{Params: simParams(), ACTs: 600_000}

	with := RunAttack(cfg, PrIDEScheme(), pat, 21, engine.Exact)

	noProt := PrIDEScheme()
	noProt.Name = "PrIDE-noTransitive"
	noProt.New = func(p dram.Params, r *rng.Stream) tracker.Tracker {
		c := core.DefaultConfig(p.ACTsPerTREFI())
		c.RowBits = p.RowBits
		c.TransitiveProtection = false
		return core.New(c, r)
	}
	without := RunAttack(cfg, noProt, pat, 21, engine.Exact)

	if with.MaxHammers >= without.MaxHammers {
		t.Fatalf("transitive protection did not reduce peak hammers: with=%d without=%d",
			with.MaxHammers, without.MaxHammers)
	}
}

func TestVictimSharingIneffectiveAgainstPrIDE(t *testing.T) {
	// Section VI: with PrIDE, the shared victim's total hammers are
	// bounded because any aggressor's mitigation refreshes it. Compare
	// the victim's peak hammer count under BR=1 sharing to 2x the
	// single-sided disturbance bound.
	pat := patterns.VictimSharing(2000, 1)
	res := RunAttack(attackCfg(400_000), PrIDEScheme(), pat, 31, engine.Exact)
	trh := analytic.EvaluateScheme(analytic.SchemePrIDE, simParams(), analytic.DefaultTargetTTFYears)
	if float64(res.MaxHammers) > trh.TRHStar {
		t.Fatalf("victim-sharing peak hammers %d exceed TRH* %.0f", res.MaxHammers, trh.TRHStar)
	}
}

func TestFlipDetectionAtLowTRH(t *testing.T) {
	// With an absurdly low device TRH, even PrIDE cannot prevent flips —
	// the failure-detection plumbing must report them.
	cfg := AttackConfig{Params: simParams(), ACTs: 100_000, TRH: 64}
	res := RunAttack(cfg, PrIDEScheme(), patterns.DoubleSided(2000), 41, engine.Exact)
	if res.Flips == 0 {
		t.Fatal("no flips detected at TRH=64")
	}
}

func TestRunAttackDeterministic(t *testing.T) {
	pat := patterns.TRRespass(500, 8, 3)
	a := RunAttack(attackCfg(50_000), PrIDEScheme(), pat, 99, engine.Exact)
	b := RunAttack(attackCfg(50_000), PrIDEScheme(), pat, 99, engine.Exact)
	if a != b {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestRunAttackPanicsOnBadACTs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunAttack(AttackConfig{Params: simParams()}, PrIDEScheme(), patterns.SingleSided(1), 1, engine.Exact)
}

func TestMeasurePatternLossBelowModel(t *testing.T) {
	// Appendix C / Fig 18: for adversarial traces, the measured loss
	// probability never exceeds the analytical estimate.
	for _, n := range []int{4, 6, 16} {
		model := analytic.LossProbability(n, 79, 1.0/79)
		suite := patterns.Fig18Suite(4096, 100, 17) // 9 traces
		for _, pat := range suite {
			m := MeasurePatternLoss(n, 79, pat, 400_000, 55, engine.Exact)
			worst := m.WorstRow()
			resolved := worst.Evicted + worst.Mitigated
			if resolved < 50 {
				continue // too few samples to compare
			}
			noise := 4 * math.Sqrt(model*(1-model)/float64(resolved))
			if got := worst.LossProb(); got > model+noise {
				t.Errorf("N=%d pattern %s: measured loss %.4f exceeds model %.4f (+%.4f)",
					n, pat.Name, got, model, noise)
			}
		}
	}
}

func TestMeasurePatternLossAccounting(t *testing.T) {
	pat := patterns.SingleSided(123)
	m := MeasurePatternLoss(4, 79, pat, 200_000, 5, engine.Exact)
	if len(m.Rows) != 1 {
		t.Fatalf("rows measured = %d, want 1", len(m.Rows))
	}
	r := m.Rows[0]
	if r.Row != 123 {
		t.Fatalf("row = %d, want 123", r.Row)
	}
	if r.Inserted == 0 || r.Inserted < r.Evicted+r.Mitigated {
		t.Fatalf("inconsistent accounting: %+v", r)
	}
}

func TestMaxDisturbanceOverSuiteTracksWorstPattern(t *testing.T) {
	suite := []*patterns.Pattern{
		patterns.SingleSided(100),
		patterns.TRRespass(1000, 30, 3),
	}
	res := suiteCampaign(t, attackCfg(30_000), fig15ByName(t, "DSAC"), suite, 1, 1, 1)
	if res.Pattern == "" || res.MaxDisturbance == 0 {
		t.Fatalf("suite result empty: %+v", res)
	}
}

func TestOpenPagePolicyBlocksSingleSided(t *testing.T) {
	// Section IV-D: with an open-page policy, repeated accesses to one
	// row hit the row buffer and never re-activate — a pure single-sided
	// stream produces exactly one ACT.
	cfg := attackCfg(10_000)
	cfg.Policy = OpenPage
	res := RunAttack(cfg, PrIDEScheme(), patterns.SingleSided(2000), 1, engine.Exact)
	if res.MaxDisturbance != 1 {
		t.Fatalf("open-page single-sided disturbance = %d, want 1", res.MaxDisturbance)
	}
	// A double-sided pattern alternates rows, so every access activates:
	// open-page does not help.
	res2 := RunAttack(cfg, PrIDEScheme(), patterns.DoubleSided(2000), 1, engine.Exact)
	closed := attackCfg(10_000)
	res3 := RunAttack(closed, PrIDEScheme(), patterns.DoubleSided(2000), 1, engine.Exact)
	if res2.MaxDisturbance < res3.MaxDisturbance/2 {
		t.Fatalf("open-page should not blunt a double-sided attack: %d vs %d",
			res2.MaxDisturbance, res3.MaxDisturbance)
	}
}

func TestOpenPageHalvesPerRowRate(t *testing.T) {
	// Under open-page, an ABAB pattern still activates every access, but
	// an AAABBB-style burst pattern collapses to one ACT per burst: the
	// per-aggressor activation rate is bounded by half the accesses, the
	// W/2 bound of Section IV-D.
	burst := &patterns.Pattern{
		Name:       "bursty",
		Sequence:   []int{2000, 2000, 2000, 2002, 2002, 2002},
		Aggressors: []int{2000, 2002},
	}
	cfg := attackCfg(60_000)
	cfg.Policy = OpenPage
	res := RunAttack(cfg, PrIDEScheme(), burst, 2, engine.Exact)
	closed := attackCfg(60_000)
	resClosed := RunAttack(closed, PrIDEScheme(), burst, 2, engine.Exact)
	// The per-aggressor ACT rate drops to 1/3 (one ACT per 3-access
	// burst); the peak hammer count drops with it, though not linearly
	// (it also depends on when mitigations land).
	if res.MaxHammers >= resClosed.MaxHammers {
		t.Fatalf("open-page peak hammers %d not below closed-page %d",
			res.MaxHammers, resClosed.MaxHammers)
	}
}

func TestBlastRadiusTwoVictimSharing(t *testing.T) {
	// Section VI, BR=2: four aggressors share the victim, and every one of
	// their activations is a chance to refresh it (level-1 mitigation of
	// B/D covers C directly; with blast radius 2, mitigations refresh two
	// rows per side). The victim's peak hammers stay bounded by TRH*.
	p := simParams()
	p.BlastRadius = 2
	pat := patterns.VictimSharing(2000, 2)
	res := RunAttack(AttackConfig{Params: p, ACTs: 300_000}, PrIDEScheme(), pat, 61, engine.Exact)
	trh := analytic.EvaluateScheme(analytic.SchemePrIDE, p, analytic.DefaultTargetTTFYears)
	if float64(res.MaxHammers) > trh.TRHStar {
		t.Fatalf("BR=2 victim peak hammers %d exceed TRH* %.0f", res.MaxHammers, trh.TRHStar)
	}
	if res.Mitigations == 0 {
		t.Fatal("no mitigations under BR=2 sharing attack")
	}
}
