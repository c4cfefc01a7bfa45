// Command pride-security regenerates the paper's analytic security results:
// Tables I, II, III, IV, V, VI, VIII, IX, XI, XII and Figures 8 and 9.
//
// Usage:
//
//	pride-security -table 3          # one table
//	pride-security -fig 8 -csv       # one figure as CSV series
//	pride-security -all              # everything
//	pride-security -fig 8 -mc-periods 100000000   # paper-scale Monte-Carlo
//	pride-security -fig 8 -workers 1              # serial execution
//	pride-security -fig 8 -checkpoint fig8.ckpt -progress-every 10s
//
// With -checkpoint, an interrupted (SIGINT) Monte-Carlo run saves its
// completed chunks and a rerun of the identical command resumes them,
// producing output bit-identical to an uninterrupted run at any -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"pride/internal/analytic"
	"pride/internal/cli"
	"pride/internal/dram"
	"pride/internal/montecarlo"
	"pride/internal/report"
	"pride/internal/trialrunner"
)

func main() {
	ctx, cancel := cli.SignalContext()
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI surface (flag
// parsing, error paths, exit codes) is testable. ctx cancellation (SIGINT in
// production) drains the Monte-Carlo campaign gracefully: in-flight chunks
// finish, land in the checkpoint when one is configured, and the process
// exits 130 with a resume hint.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-security", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.Int("table", 0, "paper table number to regenerate (1,2,3,4,5,6,8,9,11,12)")
		fig       = fs.Int("fig", 0, "paper figure number to regenerate (8, 9)")
		zoo       = fs.Bool("zoo", false, "emit the tracker-zoo analytic comparison (every scheme incl. MINT, MOAT)")
		all       = fs.Bool("all", false, "regenerate every table and figure")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		mcPeriods = fs.Int("mc-periods", 20_000_000, "Monte-Carlo tREFI periods for Fig 8 (paper: 100M)")
		seed      = fs.Uint64("seed", 1, "Monte-Carlo seed")
		ttf       = fs.Float64("ttf", analytic.DefaultTargetTTFYears, "target time-to-fail per bank, years")
		workers   = fs.Int("workers", trialrunner.DefaultWorkers(),
			"worker goroutines for Monte-Carlo runs (>= 1; 1 = serial; results are worker-count invariant)")
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

	p := dram.DDR5()
	emit := func(t *report.Table) {
		if *csv {
			t.CSV(stdout)
		} else {
			t.Render(stdout)
		}
		fmt.Fprintln(stdout)
	}

	ran := false
	want := func(tbl, figure int) bool {
		if *all {
			return true
		}
		if tbl != 0 && tbl == *table {
			return true
		}
		return figure != 0 && figure == *fig
	}

	if want(1, 0) {
		emit(table1(p))
		ran = true
	}
	if want(2, 0) {
		emit(table2())
		ran = true
	}
	if want(0, 8) {
		t, err := fig8(ctx, p, *mcPeriods, *seed, *workers, cf, faults, stderr)
		if err != nil {
			return cli.FailureCode(err, cf.Checkpoint, stderr)
		}
		emit(t)
		ran = true
	}
	if want(3, 0) {
		emit(table3(p, *ttf))
		ran = true
	}
	if want(0, 9) {
		emit(fig9(p, *ttf))
		ran = true
	}
	if want(4, 0) {
		emit(table4(p, *ttf))
		ran = true
	}
	if want(5, 0) {
		emit(table5(p, *ttf))
		ran = true
	}
	if want(6, 0) {
		emit(table6(p, *ttf))
		ran = true
	}
	if want(8, 0) {
		emit(table8(p))
		ran = true
	}
	if want(9, 0) {
		emit(table9(p))
		ran = true
	}
	if want(11, 0) {
		emit(table11())
		ran = true
	}
	if want(12, 0) {
		emit(table12(p, *ttf))
		ran = true
	}
	if *zoo || *all {
		emit(zooTable(p, *ttf))
		ran = true
	}
	if !ran {
		fmt.Fprintln(stderr, "nothing selected: use -table N, -fig N or -all (see -help)")
		return 2
	}
	return 0
}

// zooTable is the cross-design analytic comparison over the full scheme
// enum, including the related-work zoo (MINT, MOAT) beyond the paper's own
// tables. MOAT's row is deterministic (p-hat 1, no tardiness): its TRH* is
// the ATO alert threshold, not an Eq. 8 evaluation.
func zooTable(p dram.Params, ttf float64) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Tracker zoo: analytic thresholds at TTF %.0f years", ttf),
		"Scheme", "Entries", "Window", "p-hat", "Tardiness", "TRH*", "TRH-D*")
	for _, s := range analytic.AllSchemes() {
		r := analytic.EvaluateScheme(s, p, ttf)
		t.AddRow(r.Name, r.Entries, r.Window,
			fmt.Sprintf("%.5f", r.PHat), r.Tardiness,
			fmt.Sprintf("%.0f", r.TRHStar), fmt.Sprintf("%.0f", r.TRHDoubleSided()))
	}
	return t
}

func table1(p dram.Params) *report.Table {
	t := report.NewTable("Table I: DRAM parameters", "Parameter", "Value")
	t.AddRow("tREFW", p.TREFW.String())
	t.AddRow("tREFI", p.TREFI.String())
	t.AddRow("tRFC", p.TRFC.String())
	t.AddRow("tRC", p.TRC.String())
	t.AddRow("ACTs-per-tREFI", p.ACTsPerTREFI())
	t.AddRow("ACTs-per-tREFW", p.ACTsPerTREFW())
	t.AddRow("Banks (tFAW-concurrent)", fmt.Sprintf("%d (%d)", p.Banks, p.TFAWLimit))
	return t
}

func table2() *report.Table {
	t := report.NewTable("Table II: Rowhammer threshold over time",
		"Generation", "TRH-S", "TRH-D", "Source")
	for _, e := range dram.ThresholdHistory() {
		s, d := "-", "-"
		if e.SingleSided > 0 {
			s = fmt.Sprintf("%d", e.SingleSided)
		}
		if e.DoubleSidedLow > 0 {
			if e.DoubleSidedLow == e.DoubleSidedHigh {
				d = fmt.Sprintf("%d", e.DoubleSidedLow)
			} else {
				d = fmt.Sprintf("%d - %d", e.DoubleSidedLow, e.DoubleSidedHigh)
			}
		}
		t.AddRow(e.Generation, s, d, e.Source)
	}
	return t
}

// fig8 runs the Monte-Carlo loss campaign behind Figure 8. It is the one
// long-running section of this command, so it carries the full campaign
// plumbing: cancellation, -checkpoint resume and -progress-every metering.
func fig8(ctx context.Context, p dram.Params, periods int, seed uint64, workers int, cf cli.CampaignFlags, faults trialrunner.TrialFaults, stderr io.Writer) (*report.Table, error) {
	w := p.ACTsPerTREFI()
	mc := montecarlo.LossConfig{Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: periods}
	camp, stop := cf.StartCampaign(ctx, "fig8", montecarlo.LossCampaignTrials(mc), workers, stderr)
	defer stop()
	res, err := montecarlo.SimulateLossCampaign(ctx, mc, seed, cf.Options("fig8", workers, camp, faults))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 8: single-entry loss probability vs position (W=%d, %d MC periods)", w, periods),
		"Position K", "Analytical L_K", "Monte-Carlo L_K")
	for k := 1; k <= w; k++ {
		t.AddRow(k, analytic.LossAtPosition(w, k), res.PerPosition[k-1].LossProb())
	}
	return t, nil
}

func table3(p dram.Params, ttf float64) *report.Table {
	w := p.ACTsPerTREFI()
	ins := 1 / float64(w)
	t := report.NewTable("Table III: loss probability and TRH*(TIF+TRF) vs buffer size",
		"Buffer Size", "Loss Prob (L)", "TRH*(TIF+TRF)")
	for _, n := range []int{1, 2, 4, 8, 16} {
		loss := analytic.LossProbability(n, w, ins)
		t.AddRow(n, loss, analytic.TRHStarTIFTRF(ins, loss, p.TREFI, ttf))
	}
	return t
}

func fig9(p dram.Params, ttf float64) *report.Table {
	w := p.ACTsPerTREFI()
	t := report.NewTable("Fig 9: TRH* vs buffer size (with and without tardiness)",
		"Buffer Size", "TRH*", "TRH* (no tardiness)")
	for n := 1; n <= 16; n++ {
		r := analytic.Analyze("PrIDE", n, w, 1/float64(w), p.TREFI, ttf)
		t.AddRow(n, r.TRHStar, r.TRHStarNoTardiness)
	}
	return t
}

func table4(p dram.Params, ttf float64) *report.Table {
	t := report.NewTable("Table IV: TRH* of PARA and PrIDE", "Scheme", "Type", "TRH*")
	for _, s := range []analytic.Scheme{analytic.SchemePARADRFM, analytic.SchemePARADRFMPlus, analytic.SchemePrIDE} {
		kind := "MC"
		if s == analytic.SchemePrIDE {
			kind = "In-DRAM"
		}
		t.AddRow(s.String(), kind, analytic.EvaluateScheme(s, p, ttf).TRHStar)
	}
	return t
}

func table5(p dram.Params, ttf float64) *report.Table {
	t := report.NewTable("Table V: TRH* of PrIDE and PrIDE+RFM", "Scheme", "Mitigation Rate", "TRH*")
	rows := []struct {
		s    analytic.Scheme
		rate string
	}{
		{analytic.SchemePrIDEHalfRate, "0.5x (one per two tREFI)"},
		{analytic.SchemePrIDE, "1x (one per tREFI)"},
		{analytic.SchemePrIDERFM40, "2x (approx two per tREFI)"},
		{analytic.SchemePrIDERFM16, "5x (approx five per tREFI)"},
	}
	for _, r := range rows {
		t.AddRow(r.s.String(), r.rate, analytic.EvaluateScheme(r.s, p, ttf).TRHStar)
	}
	return t
}

func table6(p dram.Params, ttf float64) *report.Table {
	t := report.NewTable("Table VI: TRH-S* and TRH-D*", "Scheme", "TRH-S*", "TRH-D*")
	for _, s := range []analytic.Scheme{analytic.SchemePARADRFM, analytic.SchemePrIDE,
		analytic.SchemePrIDERFM40, analytic.SchemePrIDERFM16} {
		r := analytic.EvaluateScheme(s, p, ttf)
		t.AddRow(s.String(), r.TRHStar, r.TRHDoubleSided())
	}
	return t
}

func table8(p dram.Params) *report.Table {
	t := report.NewTable("Table VIII: Target-TTF sensitivity",
		"Target-TTF (Bank)", "MTTF (System)", "TRH-S*", "TRH-D*")
	for _, row := range analytic.TTFSensitivity(p, []float64{100, 1_000, 10_000, 100_000, 1_000_000}) {
		t.AddRow(
			report.FormatTTFYears(row.TargetTTFBankYears),
			report.FormatTTFYears(row.MTTFSystemYears),
			row.TRHSingle, row.TRHDouble)
	}
	return t
}

func table9(p dram.Params) *report.Table {
	schemes := []analytic.Scheme{analytic.SchemePrIDE, analytic.SchemePrIDERFM40, analytic.SchemePrIDERFM16}
	thresholds := []int{4800, 2000, 1800, 1600, 1400, 1200, 1000, 800, 600, 400, 200}
	t := report.NewTable("Table IX: average time to system failure vs device TRH-D",
		"Device TRH-D", "PrIDE", "PrIDE+RFM40", "PrIDE+RFM16")
	for _, row := range analytic.DeviceTTFTable(p, thresholds, schemes) {
		t.AddRow(row.DeviceTRHD,
			report.FormatTTFYears(row.TTFYears["PrIDE"]),
			report.FormatTTFYears(row.TTFYears["PrIDE+RFM40"]),
			report.FormatTTFYears(row.TTFYears["PrIDE+RFM16"]))
	}
	return t
}

func table11() *report.Table {
	t := report.NewTable("Table XI: per-bank SRAM overhead of trackers",
		"Name", "Device TRH-D=4K", "Device TRH-D=400")
	for _, row := range analytic.SRAMOverheadTable([]int{4000, 400}, 84) {
		t.AddRow(row.Name, formatBytes(row.Bytes[4000]), formatBytes(row.Bytes[400]))
	}
	return t
}

func table12(p dram.Params, ttf float64) *report.Table {
	t := report.NewTable("Table XII: our model vs Saroiu-Wolman",
		"Entries", "L", "p-hat", "Tardiness", "TRH* (our model)", "TRH* (S-W reconstruction)")
	for _, r := range analytic.SaroiuWolmanTable(p, []int{1, 2, 4, 8, 16}, ttf) {
		name := fmt.Sprintf("%d", r.Entries)
		if r.Entries == 0 {
			name = "Ideal"
		}
		t.AddRow(name, r.Loss, r.PHat, r.Tardiness, r.OurTRH, r.SWTRH)
	}
	return t
}

func formatBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f bytes", b)
	}
}
