// Attack demo: replay the published attack families (TRRespass, Blacksmith,
// Half-Double, counter-starver) against a vendor-style TRR tracker, DSAC,
// PRoHIT and PrIDE, and compare the worst disturbance each tracker allows —
// a command-line rendition of the paper's Section VII-F story.
//
// Run with:
//
//	go run ./examples/attackdemo
package main

import (
	"fmt"
	"io"
	"os"

	"pride/internal/baseline"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/report"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/tracker"
)

func main() {
	run(os.Stdout, 400_000)
}

// run replays the attack line-up with the given trial length; tests use a
// shorter budget than the 400k-ACT demo default.
func run(out io.Writer, acts int) {
	params := sim.AttackParams()

	// The attack line-up: one representative of each published family.
	attacks := []*patterns.Pattern{
		patterns.SingleSided(4000),
		patterns.DoubleSided(4000),
		patterns.TRRespass(3000, 40, 3), // more aggressors than any tracker has entries
		patterns.Blacksmith(patterns.BlacksmithConfig{
			Base: 2000, Pairs: 8, Period: 32,
			Frequencies: []int{2, 2, 4, 4, 8, 8, 16, 16},
			Phases:      []int{0, 1, 0, 2, 0, 4, 0, 8},
			Amplitudes:  []int{4, 4, 2, 2, 1, 1, 1, 1},
			DecoyRows:   []int{6000, 6010, 6020, 6030},
		}),
		patterns.HalfDouble(5000, 16),
		patterns.CounterStarver(1000, 30, 10, 40, 1),
	}

	// The defenders: a DDR4-style TRR, the published low-cost trackers,
	// and PrIDE.
	schemes := []sim.Scheme{
		{
			Name: "TRR",
			New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
				return baseline.NewTRR(baseline.DefaultTRREntries, p.RowBits)
			},
		},
	}
	for _, s := range sim.Fig15Schemes() {
		if s.Name == "DSAC" || s.Name == "PRoHIT" || s.Name == "PrIDE" {
			schemes = append(schemes, s)
		}
	}

	cfg := sim.AttackConfig{Params: params, ACTs: acts}
	t := report.NewTable(
		fmt.Sprintf("Worst disturbance per tracker per attack family (%d ACTs per trial)", cfg.ACTs),
		"Attack", "TRR", "PRoHIT", "DSAC", "PrIDE")
	for _, pat := range attacks {
		cells := []interface{}{pat.Name}
		for _, name := range []string{"TRR", "PRoHIT", "DSAC", "PrIDE"} {
			for _, s := range schemes {
				if s.Name == name {
					res := sim.RunAttack(cfg, s, pat, 7, engine.Exact)
					cells = append(cells, res.MaxDisturbance)
				}
			}
		}
		t.AddRow(cells...)
	}
	fmt.Fprintln(out, t)
	fmt.Fprintln(out, "Reading the table: counter-driven trackers (TRR, PRoHIT) leak thousands of")
	fmt.Fprintln(out, "unmitigated activations under crafted patterns — and the number grows with")
	fmt.Fprintln(out, "attack duration. PrIDE's worst case stays bounded near its analytic TRH*,")
	fmt.Fprintln(out, "no matter which pattern is thrown at it (Fig 1c's promise).")
}
