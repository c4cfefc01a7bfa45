// Adversarial-search conformance: the trackertest property run against the
// line-up, in an external test package because trackertest itself imports
// fuzz. The bounded specs assert the paper's pattern-obliviousness claim
// (search plateaus at or below the analytic TRH*); the climbing spec asserts
// its converse for a counter-based tracker. TRR also climbs past the bound
// but only with a full-refresh-window budget — the committed corpus carries
// that assertion (see corpus/), keeping this suite's runtime moderate.
package fuzz_test

import (
	"testing"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/fuzz"
	"pride/internal/sim"
	"pride/internal/tracker/trackertest"
)

func conformanceConfig(acts int) fuzz.Config {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	return fuzz.Config{
		Attack:       sim.AttackConfig{Params: p, ACTs: acts},
		Generations:  6,
		Islands:      3,
		Population:   4,
		MigrateEvery: 2,
		MaxPairs:     8,
	}
}

func TestSearchConformance(t *testing.T) {
	mustScheme := func(name string) sim.Scheme {
		s, err := sim.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	specs := []trackertest.SearchSpec{
		{Name: "PrIDE", Scheme: sim.PrIDEScheme(), Config: conformanceConfig(60_000), Engine: engine.Event, Seed: 42, Bounded: true},
		{Name: "PrIDE+RFM40", Scheme: mustScheme("PrIDE+RFM40"), Config: conformanceConfig(60_000), Engine: engine.Event, Seed: 42, Bounded: true},
		{Name: "PrIDE+RFM16", Scheme: mustScheme("PrIDE+RFM16"), Config: conformanceConfig(60_000), Engine: engine.Event, Seed: 42, Bounded: true},
		// PRoHIT needs a longer trial for the search to climb past the
		// analytic bound (its table takes time to thrash).
		{Name: "PRoHIT", Scheme: mustScheme("PRoHIT"), Config: conformanceConfig(150_000), Engine: engine.Event, Seed: 42, Climbs: true},
		// The zoo: MINT is pattern-oblivious by construction (the insertion
		// position is committed before the interval begins), and MOAT's
		// deterministic ATO cap sits far below the PrIDE bound, so a guided
		// adversary cannot climb against either.
		{Name: "MINT", Scheme: mustScheme("MINT"), Config: conformanceConfig(60_000), Engine: engine.Event, Seed: 42, Bounded: true},
		{Name: "MOAT", Scheme: mustScheme("MOAT"), Config: conformanceConfig(60_000), Engine: engine.Event, Seed: 42, Bounded: true},
	}
	if testing.Short() {
		specs = specs[:1]
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			trackertest.RunSearchConformance(t, spec)
		})
	}
}
