package trackertest

import (
	"context"
	"testing"

	"pride/internal/analytic"
	"pride/internal/campaign"
	"pride/internal/engine"
	"pride/internal/fuzz"
	"pride/internal/sim"
)

// SearchSpec describes one scheme under adversarial-search conformance test:
// the island-model search is run against it and the outcome checked against
// the paper's central security claim. Every spec asserts the structural
// search invariants (per-island and global histories monotone non-decreasing,
// best reproducible); the Bounded/Climbs flags add the security assertion.
type SearchSpec struct {
	// Name labels the subtests.
	Name string
	// Scheme is the tracker line-up entry under attack.
	Scheme sim.Scheme
	// Config is the search configuration. Config.Attack.Params must be set;
	// the analytic bound is computed from it.
	Config fuzz.Config
	// Engine evaluates every genome.
	Engine engine.Kind
	// Seed drives the search.
	Seed uint64
	// Bounded asserts the search plateaus at or below the analytic
	// PrIDE bound TRH* — the claim that no pattern parameter can influence
	// a pattern-oblivious tracker. Set for PrIDE and its RFM co-designs.
	Bounded bool
	// Climbs asserts the search pushes disturbance ABOVE the analytic
	// PrIDE bound — the claim that counter-based trackers' worst case is
	// pattern-shaped and a guided adversary finds it. Set for the
	// counter-based baselines (with a search budget big enough to climb).
	Climbs bool
}

// RunSearchConformance runs the adversarial-search conformance property
// against s as subtests of t.
func RunSearchConformance(t *testing.T, s SearchSpec) {
	t.Helper()
	if s.Bounded && s.Climbs {
		t.Fatalf("%s: Bounded and Climbs are mutually exclusive", s.Name)
	}
	res, err := fuzz.SearchCampaign(context.Background(), s.Config, s.Scheme, s.Seed, campaign.Options{Engine: s.Engine})
	if err != nil {
		t.Fatalf("%s: search failed: %v", s.Name, err)
	}
	bound := analytic.EvaluateScheme(analytic.SchemePrIDE, s.Config.Attack.Params,
		analytic.DefaultTargetTTFYears).TRHStar

	t.Run("HistoryMonotone", func(t *testing.T) {
		if len(res.IslandHistories) != s.Config.Islands {
			t.Fatalf("%d island histories, want %d", len(res.IslandHistories), s.Config.Islands)
		}
		for i, h := range res.IslandHistories {
			if len(h) != s.Config.Generations {
				t.Fatalf("island %d history has %d generations, want %d", i, len(h), s.Config.Generations)
			}
			for g := 1; g < len(h); g++ {
				if h[g] < h[g-1] {
					t.Fatalf("island %d best regressed at generation %d: %v", i, g, h)
				}
			}
		}
		for g := 1; g < len(res.History); g++ {
			if res.History[g] < res.History[g-1] {
				t.Fatalf("global best regressed at generation %d: %v", g, res.History)
			}
		}
	})

	t.Run("BestReproducible", func(t *testing.T) {
		replay := sim.RunAttack(s.Config.Attack, s.Scheme, res.BestGenome.Build(),
			res.BestSeed, s.Engine)
		if replay.MaxDisturbance != res.BestDisturbance {
			t.Fatalf("replaying the best genome under its recorded seed gave %d, search reported %d",
				replay.MaxDisturbance, res.BestDisturbance)
		}
	})

	if s.Bounded {
		t.Run("PlateauWithinAnalyticBound", func(t *testing.T) {
			if float64(res.BestDisturbance) > bound {
				t.Fatalf("guided search pushed %s to %d, above the analytic TRH* %.1f — the pattern-obliviousness claim is broken",
					s.Scheme.Name, res.BestDisturbance, bound)
			}
		})
	}
	if s.Climbs {
		t.Run("ClimbsPastAnalyticBound", func(t *testing.T) {
			if float64(res.BestDisturbance) <= bound {
				t.Fatalf("guided search against %s only reached %d, at or below the analytic PrIDE bound %.1f — expected a counter-based tracker to be driven past it",
					s.Scheme.Name, res.BestDisturbance, bound)
			}
		})
	}
}
