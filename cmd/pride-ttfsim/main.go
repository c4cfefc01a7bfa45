// Command pride-ttfsim validates the paper's time-to-failure math
// empirically: it simulates a whole multi-bank system under continuous
// double-sided attack at low device thresholds (where failures happen within
// simulable time) and compares the measured mean time-to-fail against the
// analytic guarantee that generates Table IX.
//
// The analytic model is deliberately pessimistic (worst insertion position,
// worst start occupancy, maximum tardiness), so the measured TTF must sit
// ABOVE the prediction — by a large factor at tiny thresholds, converging as
// the threshold grows past the tardiness term.
//
// Usage:
//
//	pride-ttfsim                       # sweep victim thresholds
//	pride-ttfsim -trhd 300 -trials 50  # one device class, more trials
//	pride-ttfsim -workers 1            # serial execution
//	pride-ttfsim -checkpoint ttf.ckpt -progress-every 10s
//
// With -checkpoint, an interrupted (SIGINT) run saves every completed trial
// (one file per threshold point) and a rerun of the identical command
// resumes them, producing output bit-identical to an uninterrupted run at
// any -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pride/internal/analytic"
	"pride/internal/cli"
	"pride/internal/report"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trialrunner"
)

func main() {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI surface (flag
// parsing, error paths, exit codes) is testable. ctx cancellation (SIGINT in
// production) drains the trial pool gracefully: in-flight trials finish,
// land in the checkpoint when one is configured, and the process exits 130
// with a resume hint.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-ttfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trhd    = fs.Int("trhd", 0, "device TRH-D to test (0 = sweep 150..500)")
		banks   = fs.Int("banks", 4, "concurrently attacked banks")
		trials  = fs.Int("trials", 20, "independent trials per point")
		horizon = fs.Int("horizon", 200_000, "simulation horizon in tREFI")
		seed    = fs.Uint64("seed", 1, "base seed")
		rfm     = fs.Int("rfm", 0, "RFM threshold (0 = plain PrIDE)")
		schemeN = fs.String("scheme", "",
			`tracker to measure: empty = PrIDE (see -rfm), or "MINT". MOAT is rejected: it is deterministic and cannot fail below ATO, so a TTF measurement is meaningless`)
		csv     = fs.Bool("csv", false, "emit CSV")
		workers = fs.Int("workers", trialrunner.DefaultWorkers(),
			"worker goroutines for the trial pool (>= 1; 1 = serial; results are worker-count invariant)")
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
	if *trials < 1 {
		fmt.Fprintln(stderr, "-trials must be >= 1")
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

	params := system.TTFParams()

	scheme := sim.PrIDEScheme()
	analyticScheme := analytic.SchemePrIDE
	switch *schemeN {
	case "", "PrIDE":
		switch *rfm {
		case 0:
		case 16:
			scheme = sim.PrIDERFMScheme(16)
			analyticScheme = analytic.SchemePrIDERFM16
		case 40:
			scheme = sim.PrIDERFMScheme(40)
			analyticScheme = analytic.SchemePrIDERFM40
		default:
			fmt.Fprintln(stderr, "-rfm must be 0, 16 or 40")
			return 2
		}
	case "MINT":
		if *rfm != 0 {
			fmt.Fprintln(stderr, "-rfm applies only to PrIDE; MINT has no RFM co-design here")
			return 2
		}
		scheme = sim.MINTScheme()
		analyticScheme = analytic.SchemeMINT
	case "MOAT":
		fmt.Fprintln(stderr, "-scheme MOAT is rejected: MOAT is deterministic (no row exceeds ATO = 128 activations), so it never fails at the thresholds this tool sweeps and a mean-time-to-fail is undefined")
		return 2
	default:
		fmt.Fprintf(stderr, "-scheme must be empty, PrIDE or MINT, got %q\n", *schemeN)
		return 2
	}
	r := analytic.EvaluateScheme(analyticScheme, params, analytic.DefaultTargetTTFYears)

	points := []int{150, 200, 250, 300, 400, 500}
	if *trhd > 0 {
		points = []int{*trhd}
	}

	t := report.NewTable(
		fmt.Sprintf("Measured vs analytic system TTF (%s, %d banks, %d trials/point)",
			scheme.Name, *banks, *trials),
		"Device TRH-D", "Failed Trials", "Measured MTTF", "Analytic Guarantee", "Margin (x)")
	var below []string // TRH-D points whose measured MTTF is not above the guarantee
	for _, d := range points {
		victimThreshold := 2 * d // the shared victim absorbs both aggressors' hammers
		cfg := system.Config{Params: params, Banks: *banks, TRH: victimThreshold, MaxTREFI: *horizon}
		// One campaign (and one checkpoint file) per threshold point: each
		// point resumes independently and the progress meter names it.
		section := fmt.Sprintf("ttf-trhd%d", d)
		camp, stop := cf.StartCampaign(ctx, section, *trials, *workers, stderr)
		mean, failed, err := system.MeasureMTTFCampaign(ctx, cfg, scheme, *trials, *seed+uint64(d),
			cf.Options(section, *workers, camp, faults))
		stop()
		if err != nil {
			return cli.FailureCode(err, cf.Checkpoint, stderr)
		}
		predicted := analytic.SystemTTFYears(r, float64(victimThreshold), *banks) * analytic.SecondsPerYear
		if failed == 0 {
			t.AddRow(d, fmt.Sprintf("0/%d", *trials), "> horizon",
				report.FormatTTFYears(predicted/analytic.SecondsPerYear), "-")
			continue
		}
		margin := mean / predicted
		if margin <= 1 {
			below = append(below, fmt.Sprint(d))
		}
		t.AddRow(d,
			fmt.Sprintf("%d/%d", failed, *trials),
			fmt.Sprintf("%.3gs", mean),
			fmt.Sprintf("%.3gs", predicted),
			fmt.Sprintf("%.1f", margin))
	}
	if *csv {
		t.CSV(stdout)
	} else {
		t.Render(stdout)
	}
	if len(below) == 0 {
		fmt.Fprintln(stdout, "\nMargin > 1 everywhere confirms the analytic model is a sound (pessimistic)")
		fmt.Fprintln(stdout, "guarantee; the margin shrinks as TRH-D grows beyond the tardiness term N*W.")
		return 0
	}
	fmt.Fprintf(stdout, "\nMargin <= 1 at TRH-D %s: the measured MTTF of %s does not exceed the analytic\n",
		strings.Join(below, ", "), scheme.Name)
	fmt.Fprintln(stdout, "guarantee there, so the model is not a sound bound for it at those points.")
	return 0
}
