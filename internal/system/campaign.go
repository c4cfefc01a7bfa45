package system

import (
	"context"
	"fmt"

	"pride/internal/campaign"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// CampaignOptions is the campaign contract every campaign shares; see
// campaign.Options.
type CampaignOptions = campaign.Options

// MTTFCampaignKey is the canonical checkpoint key of a TTF campaign: every
// parameter a trial's outcome depends on, and nothing else (in particular
// not the worker count).
func MTTFCampaignKey(cfg Config, s sim.Scheme, trials int, seed uint64, eng engine.Kind) string {
	return fmt.Sprintf("system.mttf|scheme=%s|params=%+v|banks=%d|trh=%d|maxtrefi=%d|trials=%d|seed=%d%s",
		s.Name, cfg.Params, cfg.Banks, cfg.TRH, cfg.MaxTREFI, trials, seed, engine.KeySuffix(eng))
}

// MeasureMTTFCampaign runs `trials` independent system simulations and
// returns the mean time-to-fail in seconds over the failing trials, plus
// how many trials failed within the horizon. Comparing the mean against
// analytic.SystemTTFYears validates the Eq. 1 / Section VII-C chain
// empirically. Trial t runs under the index-derived seed
// rng.DeriveSeed(seed, t) and results fold in trial order, so the mean and
// failure count are a pure function of (cfg, s, trials, seed, engine) at
// any worker count. The campaign cancels with graceful drain, isolates
// per-trial panics, checkpoints durably and meters progress.
func MeasureMTTFCampaign(ctx context.Context, cfg Config, s sim.Scheme, trials int, seed uint64, opts CampaignOptions) (meanSeconds float64, failed int, err error) {
	if trials < 1 {
		panic(fmt.Sprintf("system: trials must be >= 1, got %d", trials))
	}
	cp := opts.Checkpoint
	if cp.Key == "" {
		cp.Key = MTTFCampaignKey(cfg, s, trials, seed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	var onDone func(t int, r Result) error
	if sink := opts.Progress; sink != nil {
		onDone = func(t int, r Result) error {
			sink.AddPeriods(int64(r.TREFIsSimulated))
			return nil
		}
	}
	// One scratch arena per worker index: trials run by the same worker
	// reuse the bank arrays and hammer patterns.
	ropts := opts.Runner()
	scratch := make([]runScratch, ropts.PoolSize(trials))
	results, err := trialrunner.MapCheckpointedWorker(ctx, trials, func(worker, t int) Result {
		trialSeed := rng.DeriveSeed(seed, uint64(t))
		// run resets the scratch's banks itself, so a tripped event trial
		// re-runs as the exact trial under the same derived seed.
		return campaign.Trial(opts, "system.event", t,
			func() Result { return run(cfg, s, trialSeed, &scratch[worker], engine.Exact) },
			func() Result { return run(cfg, s, trialSeed, &scratch[worker], engine.Event) })
	}, onDone, ropts, cp)
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	for _, res := range results {
		if res.Failed {
			failed++
			total += res.TimeToFail.Seconds()
		}
	}
	if failed == 0 {
		return 0, 0, nil
	}
	return total / float64(failed), failed, nil
}
