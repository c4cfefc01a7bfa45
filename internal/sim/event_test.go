package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/tracker"
)

// pOneScheme is PrIDE with insertion probability forced to 1: the one
// configuration where the event engine's geometric gaps (always zero) make
// it consume the shared stream exactly like the exact engine, so trials
// must be bit-identical.
func pOneScheme() Scheme {
	return Scheme{
		Name: "PrIDE-p1",
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			cfg := core.DefaultConfig(p.ACTsPerTREFI())
			cfg.RowBits = p.RowBits
			cfg.InsertionProb = 1
			return core.New(cfg, r)
		},
	}
}

func TestRunAttackEngineBitIdenticalAtPOne(t *testing.T) {
	cfg := attackCfg(60_000)
	cfg.TRH = 900 // exercise flip accounting through HammerN too
	for _, pat := range []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.TRRespass(1000, 40, 3),
		blacksmithBreaker(),
	} {
		exact := RunAttack(cfg, pOneScheme(), pat, 5, engine.Exact)
		event := RunAttack(cfg, pOneScheme(), pat, 5, engine.Event)
		if !reflect.DeepEqual(exact, event) {
			t.Errorf("%s: p=1 engines diverged:\nexact %+v\nevent %+v", pat.Name, exact, event)
		}
	}
}

// blacksmithTight is a Blacksmith schedule with every pair firing in every
// slot: the generated sequence has a small fundamental cycle (6 rows), so
// unlike blacksmithBreaker its idle stretches retire through the batched
// multi-row path.
func blacksmithTight() *patterns.Pattern {
	return patterns.Blacksmith(patterns.BlacksmithConfig{
		Base:        1500,
		Pairs:       3,
		Period:      3,
		Frequencies: []int{1, 1, 1},
		Phases:      []int{0, 0, 0},
		Amplitudes:  []int{1, 1, 1},
	})
}

// TestRunAttackEngineBitIdenticalAtPOneBatchedGroups is the p=1 identity for
// patterns whose idle stretches retire through ActivateRunGroup/HammerCycle
// (cycle <= MaxBatchGroup): the alternating double-sided pair the tentpole
// fix targets, a victim-sharing group, round-robin many-sided, and a
// tight Blacksmith schedule.
func TestRunAttackEngineBitIdenticalAtPOneBatchedGroups(t *testing.T) {
	cfg := attackCfg(60_000)
	cfg.TRH = 900
	for _, pat := range []*patterns.Pattern{
		patterns.DoubleSided(2000),
		patterns.VictimSharing(2000, 2),
		patterns.TRRespass(1000, 40, 3),
		blacksmithTight(),
	} {
		if pat.CycleLen() > patterns.MaxBatchGroup {
			t.Fatalf("%s: cycle %d exceeds MaxBatchGroup — test no longer hits the batched path", pat.Name, pat.CycleLen())
		}
		exact := RunAttack(cfg, pOneScheme(), pat, 5, engine.Exact)
		event := RunAttack(cfg, pOneScheme(), pat.Clone(), 5, engine.Event)
		if !reflect.DeepEqual(exact, event) {
			t.Errorf("%s: p=1 engines diverged:\nexact %+v\nevent %+v", pat.Name, exact, event)
		}
	}
}

func TestRunAttackEngineFallbacksAreBitIdentical(t *testing.T) {
	cfg := attackCfg(40_000)
	pat := patterns.TRRespass(1000, 40, 3)
	// DSAC's insertion decision depends on tracked counters, so it has no
	// skip-ahead; the event engine must fall back to the exact loop with an
	// identically-constructed trial.
	dsac := Fig15Schemes()[1]
	if got := RunAttack(cfg, dsac, pat, 9, engine.Event); !reflect.DeepEqual(got, RunAttack(cfg, dsac, pat.Clone(), 9, engine.Exact)) {
		t.Errorf("DSAC event trial differs from exact fallback")
	}
	// OpenPage couples activations to row-buffer state, so slots are not
	// iid Bernoulli: the event engine must fall back even for PrIDE.
	open := cfg
	open.Policy = OpenPage
	if got := RunAttack(open, PrIDEScheme(), pat, 9, engine.Event); !reflect.DeepEqual(got, RunAttack(open, PrIDEScheme(), pat.Clone(), 9, engine.Exact)) {
		t.Errorf("OpenPage event trial differs from exact fallback")
	}
}

func TestMINTEventBitIdenticalToExact(t *testing.T) {
	// MINT's schedule draws happen inside OnMitigate on both paths, so the
	// scheduled event loop is bit-identical to the exact per-ACT loop at the
	// real insertion probability — not just at a rigged p=1 like PrIDE.
	cfg := attackCfg(60_000)
	cfg.TRH = 900
	for _, pat := range []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.TRRespass(1000, 40, 3),
		blacksmithBreaker(),
	} {
		exact := RunAttack(cfg, MINTScheme(), pat, 5, engine.Exact)
		event := RunAttack(cfg, MINTScheme(), pat.Clone(), 5, engine.Event)
		if !reflect.DeepEqual(exact, event) {
			t.Errorf("%s: MINT engines diverged:\nexact %+v\nevent %+v", pat.Name, exact, event)
		}
		if exact.Mitigations == 0 {
			t.Errorf("%s: MINT dispatched no mitigations", pat.Name)
		}
	}
}

func TestMOATEventFallsBackToExact(t *testing.T) {
	// MOAT's insertion decision is a counter compare — pattern-dependent, so
	// no skip-ahead of either kind. The event engine must take the exact
	// per-ACT path and produce a bit-identical trial.
	cfg := attackCfg(60_000)
	for _, pat := range []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.TRRespass(1000, 40, 3),
	} {
		exact := RunAttack(cfg, MOATScheme(), pat, 7, engine.Exact)
		event := RunAttack(cfg, MOATScheme(), pat.Clone(), 7, engine.Event)
		if !reflect.DeepEqual(exact, event) {
			t.Errorf("%s: MOAT event trial differs from exact fallback:\nexact %+v\nevent %+v",
				pat.Name, exact, event)
		}
	}
}

func TestMOATDisturbanceCappedAtATO(t *testing.T) {
	// MOAT's ALERT threshold is a deterministic cap: no row can accumulate
	// more than ATO activations between mitigations, for ANY pattern.
	cfg := attackCfg(200_000)
	for _, pat := range []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.DoubleSided(2500),
		patterns.TRRespass(1000, 40, 3),
	} {
		res := RunAttack(cfg, MOATScheme(), pat, 3, engine.Event)
		if res.MaxDisturbance > tracker.DefaultMOATATO {
			t.Errorf("%s: MOAT max disturbance %d exceeds the deterministic ATO cap %d",
				pat.Name, res.MaxDisturbance, tracker.DefaultMOATATO)
		}
		if res.Mitigations == 0 {
			t.Errorf("%s: MOAT dispatched no mitigations", pat.Name)
		}
	}
}

func TestRunAttackEventReproducibleAndSecure(t *testing.T) {
	// The event engine is deterministic per seed, and its PrIDE trials must
	// satisfy the same security bound the exact-engine tests pin: max
	// disturbance below the analytic TRH*.
	cfg := attackCfg(400_000)
	pat := patterns.SingleSided(2000)
	a := RunAttack(cfg, PrIDEScheme(), pat, 1, engine.Event)
	b := RunAttack(cfg, PrIDEScheme(), pat.Clone(), 1, engine.Event)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event engine not reproducible: %+v vs %+v", a, b)
	}
	if a.Mitigations == 0 {
		t.Fatal("event engine dispatched no mitigations")
	}
	exact := RunAttack(cfg, PrIDEScheme(), pat.Clone(), 1, engine.Exact)
	// Mitigation opportunities are REF-cadence-driven and only skipped when
	// the FIFO is idle, so the two engines' dispatch counts are tightly
	// coupled even though individual draws differ.
	ratio := float64(a.Mitigations) / float64(exact.Mitigations)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("mitigations: event %d vs exact %d (ratio %.3f)", a.Mitigations, exact.Mitigations, ratio)
	}
	if a.MaxDisturbance < cfg.Params.ACTsPerTREFI() || a.MaxDisturbance > 4*exact.MaxDisturbance {
		t.Errorf("max disturbance: event %d vs exact %d", a.MaxDisturbance, exact.MaxDisturbance)
	}
}

func TestMeasurePatternLossEngineBitIdenticalAtWOne(t *testing.T) {
	// w=1 means insertion probability 1/w = 1 and a mitigation after every
	// ACT: the degenerate configuration where the engines share draw
	// sequences and must agree exactly.
	pat := patterns.TRRespass(100, 8, 3)
	exact := MeasurePatternLoss(4, 1, pat, 20_000, 3, engine.Exact)
	event := MeasurePatternLoss(4, 1, pat.Clone(), 20_000, 3, engine.Event)
	if !reflect.DeepEqual(exact, event) {
		t.Fatalf("w=1 engines diverged:\nexact %+v\nevent %+v", exact, event)
	}
}

func TestMeasurePatternLossEventStatisticallyClose(t *testing.T) {
	// Same estimator, independent draw sequences: each row's measured loss
	// probability must agree within a two-estimator binomial tolerance.
	pat := patterns.TRRespass(1000, 40, 3)
	const acts = 2_500_000 // ~790 insertions per aggressor row
	exact := MeasurePatternLoss(4, 79, pat, acts, 11, engine.Exact)
	event := MeasurePatternLoss(4, 79, pat.Clone(), acts, 12, engine.Event)
	if len(event.Rows) == 0 {
		t.Fatal("event measurement saw no rows")
	}
	byRow := map[int]RowLoss{}
	for _, r := range exact.Rows {
		byRow[r.Row] = r
	}
	compared := 0
	for _, ev := range event.Rows {
		ex, ok := byRow[ev.Row]
		if !ok {
			continue
		}
		ra, rb := float64(ex.Evicted+ex.Mitigated), float64(ev.Evicted+ev.Mitigated)
		if ra < 200 || rb < 200 {
			continue
		}
		pa, pb := ex.LossProb(), ev.LossProb()
		tol := 5*math.Sqrt(pa*(1-pa)/ra+pb*(1-pb)/rb) + 0.01
		if math.Abs(pa-pb) > tol {
			t.Errorf("row %d: exact loss %.4f vs event %.4f (tol %.4f)", ev.Row, pa, pb, tol)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d rows had enough samples to compare", compared)
	}
}

func TestAttackCampaignEventEngine(t *testing.T) {
	cfg := attackCfg(20_000)
	suite := []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.TRRespass(1000, 40, 3),
	}
	var want AttackResult
	for i, workers := range []int{1, 3} {
		got, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, 2, 77,
			CampaignOptions{Workers: workers, Engine: engine.Event})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event attack campaign at %d workers differs from 1 worker", workers)
		}
	}
	if want.Mitigations == 0 {
		t.Fatal("event attack campaign dispatched no mitigations")
	}
	if AttackCampaignKey(cfg, PrIDEScheme(), 2, 2, 77, engine.Exact) ==
		AttackCampaignKey(cfg, PrIDEScheme(), 2, 2, 77, engine.Event) {
		t.Fatal("attack keys identical across engines")
	}
}

func TestSuiteLossCampaignEventEngine(t *testing.T) {
	suite := []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.DoubleSided(2500),
		patterns.TRRespass(1000, 40, 3),
	}
	const acts = 60_000
	want, err := MeasureSuiteLossCampaign(context.Background(), 64, 79, suite, acts, 33,
		CampaignOptions{Workers: 1, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureSuiteLossCampaign(context.Background(), 64, 79, suite, acts, 33,
		CampaignOptions{Workers: 3, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("event suite-loss campaign differs across worker counts")
	}
	if SuiteLossCampaignKey(64, 79, len(suite), acts, 33, engine.Exact) ==
		SuiteLossCampaignKey(64, 79, len(suite), acts, 33, engine.Event) {
		t.Fatal("suite-loss keys identical across engines")
	}
}
