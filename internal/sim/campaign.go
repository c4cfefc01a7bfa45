package sim

import (
	"context"
	"fmt"

	"pride/internal/campaign"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// CampaignOptions is the campaign contract every campaign shares; see
// campaign.Options.
type CampaignOptions = campaign.Options

// AttackCampaignKey is the canonical checkpoint key of a Fig 15 suite
// campaign: everything the trial grid and per-trial seeds depend on
// (configuration, scheme name, suite size, seeds per pattern, base seed) and
// nothing else. Pattern suites are deterministic given their size in this
// repository; a caller mixing suites of equal length under one path must set
// Checkpoint.Key itself.
func AttackCampaignKey(cfg AttackConfig, s Scheme, suiteLen, seeds int, baseSeed uint64, eng engine.Kind) string {
	return fmt.Sprintf("sim.attack|scheme=%s|params=%+v|acts=%d|trh=%d|policy=%d|patterns=%d|seeds=%d|seed=%d%s",
		s.Name, cfg.Params, cfg.ACTs, cfg.TRH, cfg.Policy, suiteLen, seeds, baseSeed, engine.KeySuffix(eng))
}

// MaxDisturbanceOverSuiteCampaign runs every pattern in the suite against a
// scheme across `seeds` trials each and returns the worst disturbance
// observed — one bar of Figure 15. Trial t replays a private clone of
// suite[t/seeds] under the index-derived seed rng.DeriveSeed(baseSeed, t),
// and trial results fold in trial order, so the result is a pure function
// of (cfg, scheme, suite, seeds, baseSeed, engine) at any worker count. The
// campaign cancels with graceful drain, isolates per-trial panics,
// checkpoints durably and meters progress.
func MaxDisturbanceOverSuiteCampaign(ctx context.Context, cfg AttackConfig, s Scheme, suite []*patterns.Pattern, seeds int, baseSeed uint64, opts CampaignOptions) (AttackResult, error) {
	if len(suite) == 0 || seeds < 1 {
		panic(fmt.Sprintf("sim: suite of %d patterns x %d seeds has no trials", len(suite), seeds))
	}
	cp := opts.Checkpoint
	if cp.Key == "" {
		cp.Key = AttackCampaignKey(cfg, s, len(suite), seeds, baseSeed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	trials := len(suite) * seeds
	var onDone func(t int, r AttackResult) error
	if sink := opts.Progress; sink != nil {
		onDone = func(t int, r AttackResult) error {
			sink.AddActivations(int64(cfg.ACTs))
			sink.AddMitigations(int64(r.Mitigations))
			return nil
		}
	}
	// One scratch arena per worker index: trials run by the same worker
	// reuse the DRAM bank and the pattern clones.
	ropts := opts.Runner()
	scratch := make([]attackScratch, ropts.PoolSize(trials))
	results, err := trialrunner.MapCheckpointedWorker(ctx, trials, func(worker, t int) AttackResult {
		sc := &scratch[worker]
		pat := sc.clone(suite, t/seeds)
		seed := rng.DeriveSeed(baseSeed, uint64(t))
		// Both engines run against a freshly-reset bank under the same
		// derived seed, so a tripped event trial re-runs as the exact trial.
		return campaign.Trial(opts, "sim.event", t,
			func() AttackResult {
				return runAttack(cfg, s, pat, seed, sc.bankFor(cfg.Params, cfg.TRH), engine.Exact)
			},
			func() AttackResult {
				return runAttack(cfg, s, pat, seed, sc.bankFor(cfg.Params, cfg.TRH), engine.Event)
			})
	}, onDone, ropts, cp)
	if err != nil {
		return AttackResult{}, err
	}
	// Fold from a zero accumulator, so the Pattern headline is only
	// attributed to trials that actually disturbed rows.
	worst := AttackResult{Scheme: s.Name}
	for _, res := range results {
		worst = mergeWorst(worst, res)
	}
	return worst, nil
}

// mergeWorst folds trial results in trial order: first-wins maximum for the
// disturbance headline (and its pattern attribution), running maximum for
// peak hammers, sums for flips and mitigations.
func mergeWorst(acc, next AttackResult) AttackResult {
	if next.MaxDisturbance > acc.MaxDisturbance {
		acc.MaxDisturbance = next.MaxDisturbance
		acc.Pattern = next.Pattern
	}
	if next.MaxHammers > acc.MaxHammers {
		acc.MaxHammers = next.MaxHammers
	}
	acc.Flips += next.Flips
	acc.Mitigations += next.Mitigations
	return acc
}

// SuiteLossCampaignKey is the canonical checkpoint key of a Fig 18 suite
// loss campaign. The same suite-identity caveat as AttackCampaignKey
// applies.
func SuiteLossCampaignKey(entries, w, suiteLen, acts int, baseSeed uint64, eng engine.Kind) string {
	return fmt.Sprintf("sim.suiteloss|n=%d|w=%d|patterns=%d|acts=%d|seed=%d%s",
		entries, w, suiteLen, acts, baseSeed, engine.KeySuffix(eng))
}

// totalMitigated sums the mitigation counter across a measurement's rows.
func (m LossMeasurement) totalMitigated() int64 {
	var total int64
	for _, r := range m.Rows {
		total += int64(r.Mitigated)
	}
	return total
}

// MeasureSuiteLossCampaign runs the Fig 18 / Appendix C loss measurement
// for every trace in the suite and returns the measurements in suite order,
// with the same cancellation/checkpoint/metering contract as
// MaxDisturbanceOverSuiteCampaign. Trace i always gets seed
// rng.DeriveSeed(baseSeed, i) and a private pattern clone, so the
// measurements are the same at any worker count.
func MeasureSuiteLossCampaign(ctx context.Context, entries, w int, suite []*patterns.Pattern, acts int, baseSeed uint64, opts CampaignOptions) ([]LossMeasurement, error) {
	cp := opts.Checkpoint
	if cp.Key == "" {
		cp.Key = SuiteLossCampaignKey(entries, w, len(suite), acts, baseSeed, opts.Engine)
	}
	var onDone func(i int, m LossMeasurement) error
	if sink := opts.Progress; sink != nil {
		onDone = func(i int, m LossMeasurement) error {
			sink.AddActivations(int64(acts))
			sink.AddMitigations(m.totalMitigated())
			return nil
		}
	}
	// Per-worker row accumulators: each pattern appears once per campaign so
	// clone caching buys nothing here, but the fate table is reused.
	ropts := opts.Runner()
	scratch := make([]lossMeasureScratch, ropts.PoolSize(len(suite)))
	return trialrunner.MapCheckpointedWorker(ctx, len(suite), func(worker, i int) LossMeasurement {
		seed := rng.DeriveSeed(baseSeed, uint64(i))
		return campaign.Trial(opts, "sim.event", i,
			func() LossMeasurement {
				return measurePatternLoss(entries, w, suite[i].Clone(), acts, seed, &scratch[worker], opts.SelfCheck)
			},
			func() LossMeasurement {
				return measurePatternLossEvent(entries, w, suite[i].Clone(), acts, seed, &scratch[worker], opts.SelfCheck)
			})
	}, onDone, ropts, cp)
}
