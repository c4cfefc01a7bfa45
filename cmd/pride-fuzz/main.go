// Command pride-fuzz runs the guided adversarial search — an island-model
// population search over Blacksmith-style pattern parameters — against a
// chosen tracker, looking for the pattern that maximizes unmitigated
// disturbance. Against PrIDE the search plateaus under the analytic TRH*;
// against counter-driven trackers it climbs — the paper's Section VII-F
// claim, demonstrated adversarially.
//
// Usage:
//
//	pride-fuzz                                   # attack PrIDE
//	pride-fuzz -scheme PRoHIT                    # attack a baseline
//	pride-fuzz -islands 8 -generations 40 -save out.trace
//	pride-fuzz -checkpoint fuzz.ckpt -progress-every 10s
//	pride-fuzz -scheme all -acts 650000 -corpus corpus   # regenerate corpus/
//
// With -checkpoint, an interrupted (SIGINT) run exits 130 after saving every
// completed migration epoch, and a rerun of the identical command resumes
// them, producing output bit-identical to an uninterrupted run at any
// -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"pride/internal/analytic"
	"pride/internal/cli"
	"pride/internal/corpus"
	"pride/internal/engine"
	"pride/internal/fuzz"
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
// production) drains the search gracefully: the in-flight migration epoch
// finishes, lands in the checkpoint when one is configured, and the process
// exits 130 with a resume hint.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pride-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeName = fs.String("scheme", "PrIDE",
			`target tracker (PrIDE, PrIDE+RFM40, PrIDE+RFM16, PRoHIT, DSAC, PARA-MC, PARFM, TRR, MINT, MOAT), or "all"`)
		generations = fs.Int("generations", 20, "mutate-evaluate generations per island")
		islands     = fs.Int("islands", 4, "independent populations evolving in parallel")
		population  = fs.Int("population", 6, "genomes per island")
		migrate     = fs.Int("migrate-every", 5,
			"ring-migrate each island's elite every this many generations (also the checkpoint granularity)")
		acts     = fs.Int("acts", 150_000, "activations per evaluation (a full tREFW is ~650K)")
		maxPairs = fs.Int("maxpairs", 12, "maximum aggressor pairs per genome")
		seed     = fs.Uint64("seed", 1, "search seed")
		save     = fs.String("save", "", "write the worst pattern found to this trace file")
		corpusTo = fs.String("corpus", "",
			"write the worst pattern found to this corpus directory as a trace + JSON sidecar entry")
		workers = fs.Int("workers", trialrunner.DefaultWorkers(),
			"worker goroutines for island evaluation (>= 1; 1 = serial; results are worker-count invariant)")
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
	var schemes []sim.Scheme
	if *schemeName == "all" {
		schemes = sim.SearchSchemes()
	} else {
		s, err := sim.SchemeByName(*schemeName)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		schemes = []sim.Scheme{s}
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

	cfg := fuzz.Config{
		Attack:       sim.AttackConfig{Params: sim.AttackParams(), ACTs: *acts},
		Generations:  *generations,
		Islands:      *islands,
		Population:   *population,
		MigrateEvery: *migrate,
		MaxPairs:     *maxPairs,
	}

	for _, scheme := range schemes {
		res, err := search(ctx, cfg, scheme, *seed, *workers, cf, faults, stdout, stderr)
		if err != nil {
			return cli.FailureCode(err, cf.Checkpoint, stderr)
		}
		if *save != "" {
			if err := savePattern(*save, res.BestPattern); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "Worst pattern saved to %s (replay with pride-attack -trace %s)\n", *save, *save)
		}
		if *corpusTo != "" {
			name, err := saveCorpusEntry(*corpusTo, cfg, cf.Engine.Kind, scheme, *seed, res)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "Corpus entry %s/%s.{trace,json} committed at expected disturbance %d\n",
				*corpusTo, name, res.BestDisturbance)
		}
	}
	return 0
}

// search runs one island-model campaign and renders its report.
func search(ctx context.Context, cfg fuzz.Config, scheme sim.Scheme, seed uint64, workers int, cf cli.CampaignFlags, faults trialrunner.TrialFaults, stdout, stderr io.Writer) (fuzz.Result, error) {
	section := "fuzz-" + scheme.Name
	camp, stop := cf.StartCampaign(ctx, section, cfg.Epochs(), workers, stderr)
	res, err := fuzz.SearchCampaign(ctx, cfg, scheme, seed, cf.Options(section, workers, camp, faults))
	stop()
	if err != nil {
		return fuzz.Result{}, err
	}

	t := report.NewTable(
		fmt.Sprintf("Island search vs %s (%d islands x %d genomes x %d generations, migrate every %d; %d evaluations)",
			scheme.Name, cfg.Islands, cfg.Population, cfg.Generations, cfg.MigrateEvery, res.Evaluations),
		"Generation", "Best Disturbance So Far")
	for i, v := range res.History {
		t.AddRow(i+1, v)
	}
	t.Render(stdout)
	fmt.Fprintf(stdout, "\nWorst pattern found (island %d): %s -> %d unmitigated activations\n",
		res.BestIsland, res.BestPattern.Name, res.BestDisturbance)

	bound := analytic.EvaluateScheme(analytic.SchemePrIDE, cfg.Attack.Params, analytic.DefaultTargetTTFYears)
	fmt.Fprintf(stdout, "Analytic PrIDE TRH* is %.0f: %s %s it.\n",
		bound.TRHStar, scheme.Name, verdict(float64(res.BestDisturbance) < bound.TRHStar))
	return res, nil
}

func savePattern(path string, p *patterns.Pattern) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := patterns.WriteTrace(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corpusClasses fixes each scheme's committed security claim. The climbing
// set is the counter-based trackers this reimplementation drives past the
// analytic bound at full-tREFW budgets; the rest are committed as bounded
// (see the notes and EXPERIMENTS.md for the DSAC deviation).
var corpusClasses = map[string]struct {
	class corpus.Class
	note  string
}{
	"PrIDE":       {corpus.ClassBounded, "pattern-oblivious by design; the search plateaus at the analytic TRH*"},
	"PrIDE+RFM40": {corpus.ClassBounded, "pattern-oblivious by design, with RFM headroom"},
	"PrIDE+RFM16": {corpus.ClassBounded, "pattern-oblivious by design, with RFM headroom"},
	"PARA-MC":     {corpus.ClassBounded, "stateless sampling is pattern-oblivious; bounded like PrIDE"},
	"PARFM":       {corpus.ClassBounded, "empirically bounded at this budget in this reimplementation"},
	"DSAC":        {corpus.ClassBounded, "documented deviation: this DSAC reimplementation resists the search (EXPERIMENTS.md, Fig 15 notes); the silicon break (>9K) is not reproduced"},
	"PRoHIT":      {corpus.ClassClimbing, "table thrashing lets the search drive disturbance past the analytic bound"},
	"TRR":         {corpus.ClassClimbing, "Blacksmith-style many-sided patterns defeat the sampler, as on real DDR4 TRR"},
	"MINT":        {corpus.ClassBounded, "the interval schedule commits insertions before the pattern runs; pattern-oblivious like PrIDE"},
	"MOAT":        {corpus.ClassBounded, "deterministic ATO alert caps disturbance at 128 regardless of pattern shape"},
}

// saveCorpusEntry persists the search's best attack as a committed corpus
// entry: the trace plus a sidecar binding it to the scheme, the exact
// evaluation seed, and the measured disturbance.
func saveCorpusEntry(dir string, cfg fuzz.Config, eng engine.Kind, scheme sim.Scheme, campaignSeed uint64, res fuzz.Result) (string, error) {
	cls, ok := corpusClasses[scheme.Name]
	if !ok {
		return "", fmt.Errorf("no corpus class defined for scheme %q", scheme.Name)
	}
	side := corpus.Sidecar{
		Scheme:              scheme.Name,
		Class:               cls.class,
		Seed:                res.BestSeed,
		ACTs:                cfg.Attack.ACTs,
		RowsPerBank:         cfg.Attack.Params.RowsPerBank,
		RowBits:             cfg.Attack.Params.RowBits,
		Engine:              eng.String(),
		Islands:             cfg.Islands,
		Population:          cfg.Population,
		Generations:         cfg.Generations,
		MigrateEvery:        cfg.MigrateEvery,
		MaxPairs:            cfg.MaxPairs,
		CampaignSeed:        campaignSeed,
		ExpectedDisturbance: res.BestDisturbance,
		Note:                cls.note,
	}
	return corpus.WriteEntry(dir, side, res.BestPattern)
}

func verdict(held bool) string {
	if held {
		return "stayed under"
	}
	return "EXCEEDED"
}
