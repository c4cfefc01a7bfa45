package sim_test

import (
	"fmt"
	"testing"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/tracker/trackertest"
)

// TestRunAttackEventStatisticallyCloseOnBatchedPatterns cross-validates the
// geometric-gap loop against the exact engine for every search scheme
// whose tracker skips ahead, so a new skip-ahead tracker is covered without
// a new test. For each such scheme and each pattern family (the batched
// multi-row path and the same-row run path both included), the mean
// Mitigations and the mean MaxDisturbance over fixed, disjoint seeds per
// engine must agree under trackertest.SameMean.
func TestRunAttackEventStatisticallyCloseOnBatchedPatterns(t *testing.T) {
	const seeds = trackertest.MinSamples
	p := sim.SimParams()
	cfg := sim.AttackConfig{Params: p, ACTs: 100_000}
	pats := []*patterns.Pattern{
		patterns.DoubleSided(2000),
		patterns.TRRespass(1000, 40, 3),
		sim.BlacksmithTight(),
		sim.BlacksmithBreaker(),
	}
	covered := 0
	for _, s := range sim.SearchSchemes() {
		if _, ok := s.Controller(p, dram.MustNewBank(p, 0), rng.New(1), false).SkipAdvancer(); !ok {
			continue
		}
		covered++
		for _, pat := range pats {
			var mit, dist [2][]float64
			for i, eng := range []engine.Kind{engine.Exact, engine.Event} {
				for k := uint64(0); k < seeds; k++ {
					res := sim.RunAttack(cfg, s, pat, uint64(i)*seeds+k+1, eng)
					mit[i] = append(mit[i], float64(res.Mitigations))
					dist[i] = append(dist[i], float64(res.MaxDisturbance))
				}
			}
			label := fmt.Sprintf("%s/%s", s.Name, pat.Name)
			trackertest.SameMean(t, label+"/Mitigations", mit[0], mit[1])
			trackertest.SameMean(t, label+"/MaxDisturbance", dist[0], dist[1])
		}
	}
	if covered == 0 {
		t.Fatal("no search scheme skips ahead")
	}
}
