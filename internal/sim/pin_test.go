package sim

import (
	"context"
	"testing"

	"pride/internal/engine"
	"pride/internal/patterns"
)

// TestAttackCampaignResultsPinnedPerSchemeAndEngine pins the whole
// AttackResult of a small Fig 15 campaign for every SearchSchemes entry on
// both engines. The CLI transcripts print neither Mitigations nor Flips, so
// a driver or controller fault that only moves how often a scheme mitigates
// (a skip loop that stops charging insertions to its ACT budget, a
// controller that no longer drains PARA's immediate mitigations) shows here
// and nowhere in them. A
// deliberate change to a scheme, an engine or the driver that moves these
// numbers must say so and update them.
func TestAttackCampaignResultsPinnedPerSchemeAndEngine(t *testing.T) {
	type pin struct {
		pattern                           string
		maxDisturbance, maxHammers, flips int
		mitigations                       uint64
	}
	const (
		blacksmith = "blacksmith(pairs=6,period=16)"
		starver    = "counter-starver(agg=11,decoys=22)"
		trrespass  = "trrespass(n=28)"
		halfDouble = "half-double(victim=4096)"
	)
	want := map[string][2]pin{ // scheme -> {exact, event}
		"PRoHIT":      {{blacksmith, 744, 1498, 11, 2024}, {blacksmith, 744, 1498, 11, 2024}},
		"DSAC":        {{starver, 283, 285, 0, 2024}, {starver, 283, 285, 0, 2024}},
		"PARA-MC":     {{starver, 529, 545, 0, 2021}, {trrespass, 606, 606, 2, 1984}},
		"PARFM":       {{trrespass, 624, 624, 2, 2024}, {trrespass, 624, 624, 2, 2024}},
		"PrIDE":       {{trrespass, 603, 603, 2, 1804}, {halfDouble, 521, 650, 1, 1778}},
		"PrIDE+RFM40": {{trrespass, 291, 291, 0, 3940}, {trrespass, 300, 300, 0, 3979}},
		"PrIDE+RFM16": {{halfDouble, 133, 134, 0, 9363}, {blacksmith, 143, 177, 0, 9507}},
		"TRR":         {{starver, 312, 426, 0, 2024}, {starver, 312, 426, 0, 2024}},
		"MINT":        {{starver, 533, 539, 0, 2024}, {starver, 533, 539, 0, 2024}},
		"MOAT":        {{starver, 120, 186, 0, 1990}, {starver, 120, 186, 0, 1990}},
	}
	p := AttackParams()
	suite := patterns.Fig15Suite(p.RowsPerBank, 3, 7)
	// TRH 600 makes Flips part of the pin: the weaker schemes' worst
	// patterns cross it within 20K ACTs.
	cfg := AttackConfig{Params: p, ACTs: 20_000, TRH: 600}
	schemes := SearchSchemes()
	if len(schemes) != len(want) {
		t.Fatalf("SearchSchemes has %d entries, the pin table %d", len(schemes), len(want))
	}
	for _, s := range schemes {
		pins, ok := want[s.Name]
		if !ok {
			t.Fatalf("no pinned result for scheme %s", s.Name)
		}
		for i, eng := range []engine.Kind{engine.Exact, engine.Event} {
			got, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, s, suite, 2, 7,
				CampaignOptions{Workers: 1, Engine: eng})
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, eng, err)
			}
			w := pins[i]
			exp := AttackResult{Scheme: s.Name, Pattern: w.pattern, MaxDisturbance: w.maxDisturbance,
				MaxHammers: w.maxHammers, Flips: w.flips, Mitigations: w.mitigations}
			if got != exp {
				t.Errorf("%s/%v:\n got %+v\nwant %+v", s.Name, eng, got, exp)
			}
		}
	}
}
