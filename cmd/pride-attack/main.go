// Command pride-attack runs the attack-pattern evaluations: Figure 15
// (maximum disturbance of each tracker across the randomized pattern suite)
// and Figure 18 (measured vs modelled loss probability over adversarial
// traces).
//
// Usage:
//
//	pride-attack -fig 15 -patterns 500 -seeds 100 -acts 650000   # paper scale
//	pride-attack -fig 15                                          # quick run
//	pride-attack -fig 18 -scale 1                                 # all 900 traces
//	pride-attack -fig 15 -workers 1                               # serial execution
//	pride-attack -fig 15 -checkpoint f15.ckpt -progress-every 10s
//
// With -checkpoint, an interrupted (SIGINT) run saves every completed trial
// (one file per scheme or buffer size) and a rerun of the identical command
// resumes them, producing output bit-identical to an uninterrupted run at
// any -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pride/internal/analytic"
	"pride/internal/cli"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/report"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

func main() {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI surface (flag
// parsing, error paths, exit codes) is testable. ctx cancellation (SIGINT in
// production) drains the attack campaigns gracefully: in-flight trials
// finish, land in the checkpoint when one is configured, and the process
// exits 130 with a resume hint.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.Int("fig", 15, "figure to regenerate (15 or 18)")
		trace    = fs.String("trace", "", "replay a trace file against every Fig 15 scheme instead of a figure")
		nPat     = fs.Int("patterns", 60, "Fig 15: number of random patterns (paper: 500)")
		seeds    = fs.Int("seeds", 3, "Fig 15: trials per pattern with different seeds (paper: 100)")
		acts     = fs.Int("acts", 200_000, "activations per trial (a full tREFW is ~650K)")
		scale    = fs.Int("scale", 30, "Fig 18: trace-count divisor (1 = the paper's 900 traces)")
		lossActs = fs.Int("loss-acts", 400_000, "Fig 18: activations per trace")
		seed     = fs.Uint64("seed", 1, "base seed")
		zoo      = fs.Bool("zoo", false, "include the tracker zoo (MINT, MOAT) in Fig 15 and trace replays")
		csv      = fs.Bool("csv", false, "emit CSV")
		workers  = fs.Int("workers", trialrunner.DefaultWorkers(),
			"worker goroutines for attack trials (>= 1; 1 = serial; results are worker-count invariant)")
		cf cli.CampaignFlags
		pf cli.ProfileFlags
	)
	cf.Register(fs)
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := trialrunner.ValidateWorkers(*workers); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ctx, stopChaos, faults, err := cf.ChaosContext(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stopChaos()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	if *trace != "" {
		t, err := replayTrace(*trace, *acts, *seed, *zoo)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *csv {
			t.CSV(stdout)
		} else {
			t.Render(stdout)
		}
		return 0
	}

	var t *report.Table
	switch *fig {
	case 15:
		t, err = fig15(ctx, *nPat, *seeds, *acts, *seed, *workers, *zoo, cf, faults, stderr)
	case 18:
		t, err = fig18(ctx, *scale, *lossActs, *seed, *workers, cf, faults, stderr)
	default:
		fmt.Fprintln(stderr, "unknown figure: use -fig 15 or -fig 18")
		return 2
	}
	if err != nil {
		return cli.FailureCode(err, cf.Checkpoint, stderr)
	}
	if *csv {
		t.CSV(stdout)
	} else {
		t.Render(stdout)
	}
	return 0
}

// replayTrace runs one exported trace file against every Fig 15 scheme
// (plus the tracker zoo when requested).
func replayTrace(path string, acts int, seed uint64, zoo bool) (*report.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pat, err := patterns.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	p := dram.DDR5()
	// Size the bank to the trace's row span.
	maxRow := 0
	for _, row := range pat.Sequence {
		if row > maxRow {
			maxRow = row
		}
	}
	for p.RowsPerBank <= maxRow+8 {
		p.RowsPerBank *= 2
		p.RowBits++
	}
	cfg := sim.AttackConfig{Params: p, ACTs: acts}
	t := report.NewTable(
		fmt.Sprintf("Trace %s (%q, period %d) x %d ACTs", path, pat.Name, pat.Len(), acts),
		"Tracker", "Max Disturbance", "Peak Victim Hammers", "Mitigations")
	schemes := sim.Fig15Schemes()
	if zoo {
		schemes = append(schemes, sim.ZooSchemes()...)
	}
	for _, s := range schemes {
		res := sim.RunAttack(cfg, s, pat, seed, engine.Exact)
		t.AddRow(s.Name, res.MaxDisturbance, res.MaxHammers, res.Mitigations)
	}
	return t, nil
}

func fig15(ctx context.Context, nPat, seeds, acts int, seed uint64, workers int, zoo bool, cf cli.CampaignFlags, faults trialrunner.TrialFaults, stderr io.Writer) (*report.Table, error) {
	p := sim.AttackParams()
	suite := patterns.Fig15Suite(p.RowsPerBank, nPat, seed)
	cfg := sim.AttackConfig{Params: p, ACTs: acts}

	pride := analytic.EvaluateScheme(analytic.SchemePrIDE, p, analytic.DefaultTargetTTFYears)
	t := report.NewTable(
		fmt.Sprintf("Fig 15: maximum disturbance across %d patterns x %d seeds (%d ACTs each; PrIDE TRH* = %.0f)",
			len(suite), seeds, acts, pride.TRHStar),
		"Tracker", "Max Disturbance", "Worst Pattern", "Peak Victim Hammers")
	schemes := sim.Fig15Schemes()
	if zoo {
		schemes = append(schemes, sim.ZooSchemes()...)
	}
	for _, s := range schemes {
		// One campaign (and one checkpoint file) per scheme: each section
		// resumes independently and the progress meter names the scheme.
		section := "fig15-" + s.Name
		camp, stop := cf.StartCampaign(ctx, section, len(suite)*seeds, workers, stderr)
		res, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, cfg, s, suite, seeds, seed+uint64(len(s.Name)),
			cf.Options(section, workers, camp, faults))
		stop()
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, res.MaxDisturbance, res.Pattern, res.MaxHammers)
	}
	return t, nil
}

func fig18(ctx context.Context, scale, acts int, seed uint64, workers int, cf cli.CampaignFlags, faults trialrunner.TrialFaults, stderr io.Writer) (*report.Table, error) {
	const rowLimit = 8192
	w := dram.DDR5().ACTsPerTREFI()
	suite := patterns.Fig18Suite(rowLimit, scale, seed)
	t := report.NewTable(
		fmt.Sprintf("Fig 18: measured vs modelled loss probability over %d traces", len(suite)),
		"Entries", "Model L", "Worst Measured L", "Traces Above Model (3-sigma)", "Traces")
	for _, n := range []int{4, 6, 16} {
		model := analytic.LossProbability(n, w, 1/float64(w))
		section := fmt.Sprintf("fig18-n%d", n)
		camp, stop := cf.StartCampaign(ctx, section, len(suite), workers, stderr)
		measurements, err := sim.MeasureSuiteLossCampaign(ctx, n, w, suite, acts, seed,
			cf.Options(section, workers, camp, faults))
		stop()
		if err != nil {
			return nil, err
		}
		worst, above := 0.0, 0
		for _, m := range measurements {
			// The paper reports the row with the highest loss probability.
			// A max over many sparsely-sampled rows is an order statistic,
			// so compare each row against the model with a binomial
			// 3-sigma allowance and take the worst WELL-SAMPLED row for
			// the headline column (the paper's 1M iterations per trace
			// make every reported row well-sampled).
			exceeded := false
			for _, row := range m.Rows {
				resolved := row.Evicted + row.Mitigated
				if resolved < 200 {
					continue
				}
				l := row.LossProb()
				sigma := math.Sqrt(model * (1 - model) / float64(resolved))
				if l > worst {
					worst = l
				}
				if l > model+3*sigma {
					exceeded = true
				}
			}
			if exceeded {
				above++
			}
		}
		t.AddRow(n, model, worst, above, len(suite))
	}
	return t, nil
}
