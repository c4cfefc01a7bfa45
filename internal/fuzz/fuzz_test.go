package fuzz

import (
	"context"
	"testing"

	"pride/internal/analytic"
	"pride/internal/campaign"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
)

func fuzzParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	return p
}

func fuzzConfig() Config {
	return Config{
		Attack:       sim.AttackConfig{Params: fuzzParams(), ACTs: 60_000},
		Generations:  6,
		Islands:      3,
		Population:   4,
		MigrateEvery: 2,
		MaxPairs:     8,
	}
}

// search runs SearchCampaign to completion on the event engine at the
// default worker count and fails the test on an error.
func search(tb testing.TB, cfg Config, scheme sim.Scheme, seed uint64) Result {
	tb.Helper()
	res, err := SearchCampaign(context.Background(), cfg, scheme, seed, campaign.Options{Engine: engine.Event})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestSearchReturnsValidResult(t *testing.T) {
	cfg := fuzzConfig()
	res := search(t, cfg, sim.PrIDEScheme(), 1)
	if res.BestPattern == nil || res.BestPattern.Len() == 0 {
		t.Fatal("no best pattern returned")
	}
	if res.BestDisturbance <= 0 {
		t.Fatal("non-positive best disturbance")
	}
	if len(res.History) != cfg.Generations {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.Generations)
	}
	if len(res.IslandHistories) != cfg.Islands {
		t.Fatalf("island histories %d, want %d", len(res.IslandHistories), cfg.Islands)
	}
	wantEvals := cfg.Islands * cfg.Population * (cfg.Generations + 1)
	if res.Evaluations != wantEvals {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, wantEvals)
	}
	if res.BestIsland < 0 || res.BestIsland >= cfg.Islands {
		t.Fatalf("best island %d out of range", res.BestIsland)
	}
	// Per-island and global histories are non-decreasing (elitist search).
	for i, h := range res.IslandHistories {
		if len(h) != cfg.Generations {
			t.Fatalf("island %d history length %d, want %d", i, len(h), cfg.Generations)
		}
		for g := 1; g < len(h); g++ {
			if h[g] < h[g-1] {
				t.Fatalf("island %d best regressed: %v", i, h)
			}
		}
	}
	for g := 1; g < len(res.History); g++ {
		if res.History[g] < res.History[g-1] {
			t.Fatalf("global best regressed: %v", res.History)
		}
	}
	// The global best is the final global history entry and is reproducible
	// from (BestGenome, BestSeed) — the contract the corpus relies on.
	if res.History[len(res.History)-1] != res.BestDisturbance {
		t.Fatalf("history tail %d != best %d", res.History[len(res.History)-1], res.BestDisturbance)
	}
	replay := sim.RunAttack(cfg.Attack, sim.PrIDEScheme(), res.BestGenome.Build(), res.BestSeed, engine.Event)
	if replay.MaxDisturbance != res.BestDisturbance {
		t.Fatalf("replaying best genome under its seed gave %d, search reported %d",
			replay.MaxDisturbance, res.BestDisturbance)
	}
}

func TestPrIDEResistsGuidedSearch(t *testing.T) {
	// The headline: even a guided adversary cannot push PrIDE past its
	// analytic TRH*. (The paper evaluates 500 random patterns; this is
	// the stronger, search-based statement.)
	res := search(t, fuzzConfig(), sim.PrIDEScheme(), 2)
	bound := analytic.EvaluateScheme(analytic.SchemePrIDE, fuzzParams(), analytic.DefaultTargetTTFYears)
	if float64(res.BestDisturbance) > bound.TRHStar {
		t.Fatalf("guided search pushed PrIDE to %d, above TRH* %.0f",
			res.BestDisturbance, bound.TRHStar)
	}
}

func TestSearchClimbsAgainstPRoHIT(t *testing.T) {
	// Against a pattern-dependent tracker the search must find patterns
	// substantially worse than PrIDE's plateau.
	cfg := fuzzConfig()
	prohit, err := sim.SchemeByName("PRoHIT")
	if err != nil {
		t.Fatal(err)
	}
	resP := search(t, cfg, prohit, 3)
	resPride := search(t, cfg, sim.PrIDEScheme(), 3)
	if resP.BestDisturbance <= resPride.BestDisturbance {
		t.Fatalf("search against PRoHIT (%d) found nothing worse than PrIDE (%d)",
			resP.BestDisturbance, resPride.BestDisturbance)
	}
}

func TestSearchKeyCoversEvolutionInputs(t *testing.T) {
	// Everything the evolution depends on must be in the checkpoint key —
	// including MigrateEvery, because epoch boundaries define which derived
	// stream drives which generation. The worker count must NOT be in it.
	base := fuzzConfig()
	key := func(mutate func(*Config)) string {
		cfg := base
		mutate(&cfg)
		return SearchKey(cfg, sim.PrIDEScheme(), 1, engine.Event)
	}
	ref := key(func(*Config) {})
	mutations := map[string]func(*Config){
		"generations": func(c *Config) { c.Generations++ },
		"islands":     func(c *Config) { c.Islands++ },
		"population":  func(c *Config) { c.Population++ },
		"migrate":     func(c *Config) { c.MigrateEvery++ },
		"maxpairs":    func(c *Config) { c.MaxPairs++ },
		"acts":        func(c *Config) { c.Attack.ACTs++ },
	}
	for name, m := range mutations {
		if key(m) == ref {
			t.Errorf("changing %s did not change the checkpoint key", name)
		}
	}
	if SearchKey(base, sim.PrIDEScheme(), 1, engine.Exact) == ref {
		t.Error("changing the engine did not change the checkpoint key")
	}
	if SearchKey(base, sim.PrIDEScheme(), 2, engine.Event) == ref {
		t.Error("changing the seed did not change the checkpoint key")
	}
	if SearchKey(base, sim.TRRScheme(), 1, engine.Event) == ref {
		t.Error("changing the scheme did not change the checkpoint key")
	}
}

func TestEpochsPartition(t *testing.T) {
	cases := []struct{ gens, every, epochs int }{
		{6, 2, 3}, {6, 4, 2}, {1, 1, 1}, {7, 3, 3}, {5, 10, 1},
	}
	for _, c := range cases {
		cfg := Config{Generations: c.gens, MigrateEvery: c.every}
		if got := cfg.Epochs(); got != c.epochs {
			t.Fatalf("Epochs(%d,%d) = %d, want %d", c.gens, c.every, got, c.epochs)
		}
		total := 0
		for e := 0; e < cfg.Epochs(); e++ {
			g := cfg.generationsIn(e)
			if g < 1 || g > c.every {
				t.Fatalf("generationsIn(%d) = %d out of range for %+v", e, g, c)
			}
			total += g
		}
		if total != c.gens {
			t.Fatalf("epochs of %+v cover %d generations, want %d", c, total, c.gens)
		}
	}
}

func TestMigrateRingReplacesWorst(t *testing.T) {
	mk := func(scores ...int) IslandState {
		st := IslandState{}
		for _, s := range scores {
			st.Members = append(st.Members, Member{Score: s})
			if s > st.Best.Score {
				st.Best = Member{Score: s}
			}
		}
		return st
	}
	islands := []IslandState{mk(10, 2, 5), mk(7, 1, 3), mk(4, 9, 6)}
	migrate(islands)
	// Island 1's worst (1 at index 1) replaced by island 0's best (10), etc.
	if islands[1].Members[1].Score != 10 {
		t.Fatalf("island 1 did not receive island 0's elite: %+v", islands[1].Members)
	}
	if islands[2].Members[0].Score != 7 {
		t.Fatalf("island 2 did not receive island 1's elite: %+v", islands[2].Members)
	}
	if islands[0].Members[1].Score != 9 {
		t.Fatalf("island 0 did not receive island 2's elite: %+v", islands[0].Members)
	}
	// Simultaneous, not cascading: island 2 got island 1's original best (7),
	// not the migrated 10.
	for _, m := range islands[2].Members {
		if m.Score == 10 {
			t.Fatalf("migration cascaded: %+v", islands[2].Members)
		}
	}
}

func TestGenomeMutationStaysValid(t *testing.T) {
	r := rng.New(4)
	g := RandomGenome(4096, 8, r)
	for i := 0; i < 300; i++ {
		g = g.Mutate(4096, 8, r)
		if g.Pairs < 1 || g.Pairs > 8 {
			t.Fatalf("pairs out of range: %d", g.Pairs)
		}
		if len(g.Frequencies) != g.Pairs || len(g.Phases) != g.Pairs || len(g.Amplitudes) != g.Pairs {
			t.Fatalf("parameter arrays out of sync with pairs: %+v", g)
		}
		pat := g.Build() // must not panic
		for _, row := range pat.Sequence {
			if row < 0 || row >= 4096 {
				t.Fatalf("mutated genome accesses row %d", row)
			}
		}
	}
}

func TestMutateDoesNotAliasParent(t *testing.T) {
	r := rng.New(5)
	parent := RandomGenome(4096, 8, r)
	wantFreq := append([]int(nil), parent.Frequencies...)
	for i := 0; i < 50; i++ {
		parent.Mutate(4096, 8, r)
	}
	for i := range wantFreq {
		if parent.Frequencies[i] != wantFreq[i] {
			t.Fatal("Mutate modified its receiver")
		}
	}
}

func TestSearchPanicsOnBadConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.Islands = 0 },
		func(c *Config) { c.Population = 0 },
		func(c *Config) { c.MigrateEvery = 0 },
		func(c *Config) { c.MaxPairs = 0 },
		func(c *Config) { c.Attack.ACTs = 0 },
	}
	for i, breakIt := range bad {
		cfg := fuzzConfig()
		breakIt(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), 1, campaign.Options{})
		}()
	}
}
