package montecarlo

import (
	"context"
	"fmt"

	"pride/internal/campaign"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// CampaignOptions is the campaign contract every campaign shares; see
// campaign.Options.
type CampaignOptions = campaign.Options

// LossCampaignKey is the canonical checkpoint key of a loss campaign: every
// parameter the chunk plan, per-chunk RNG streams, and per-chunk draw
// sequences depend on — including the engine — and nothing else (in
// particular not the worker count). The exact engine keeps the historical
// key spelling, so checkpoints written before engines existed still resume.
func LossCampaignKey(cfg LossConfig, seed uint64, eng engine.Kind) string {
	return fmt.Sprintf("montecarlo.loss|n=%d|w=%d|p=%g|periods=%d|seed=%d%s",
		cfg.Entries, cfg.Window, cfg.InsertionProb, cfg.Periods, seed, engine.KeySuffix(eng))
}

// LossCampaignTrials reports how many chunks (checkpointable trials) a loss
// campaign over cfg runs — the trial total a progress meter should expect.
func LossCampaignTrials(cfg LossConfig) int {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return len(chunkSizes(cfg.Periods, minLossChunkPeriods))
}

// totalMitigations sums the mitigation counter across window positions.
func (r LossResult) totalMitigations() int64 {
	var total int64
	for _, s := range r.PerPosition {
		total += int64(s.Mitigated)
	}
	return total
}

// SimulateLossCampaign shards cfg.Periods into independent chunks and runs
// them as a long-running campaign, merging per-position and occupancy
// counters in chunk order. Chunk i always consumes stream
// rng.Derived(seed, i), so the result is a pure function of (cfg, seed,
// engine): the worker count only changes how fast it arrives. The estimator
// is the same unbiased one as SimulateLoss; the only difference from one
// long serial stream is that each chunk restarts from an empty FIFO, a
// warm-up transient of tens of windows per >=4096-window chunk. The
// cross-validation tests hold the campaign to the exact DP model with the
// same tolerances as the serial estimator.
//
// The campaign cancels with graceful drain, isolates per-chunk panics,
// checkpoints durably and meters progress. When ctx is cancelled,
// in-flight chunks finish, land in the checkpoint (when enabled), and the
// error wraps ctx.Err(); rerunning the identical campaign resumes from the
// completed chunks and returns a result bit-identical to an uninterrupted
// run at any worker count.
func SimulateLossCampaign(ctx context.Context, cfg LossConfig, seed uint64, opts CampaignOptions) (LossResult, error) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	cp := opts.Checkpoint
	if cp.Key == "" {
		cp.Key = LossCampaignKey(cfg, seed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	sizes := chunkSizes(cfg.Periods, minLossChunkPeriods)
	var onDone func(i int, r LossResult) error
	if sink := opts.Progress; sink != nil {
		onDone = func(i int, r LossResult) error {
			sink.AddPeriods(int64(sizes[i]))
			sink.AddMitigations(r.totalMitigations())
			return nil
		}
	}
	// One scratch arena per worker index: chunks run by the same worker
	// reuse the FIFO buffer. Scratch never reaches a result, so worker-count
	// invariance is untouched.
	ropts := opts.Runner()
	scratch := make([]lossScratch, ropts.PoolSize(len(sizes)))
	results, err := trialrunner.MapCheckpointedWorker(ctx, len(sizes), func(worker, i int) LossResult {
		c := cfg
		c.Periods = sizes[i]
		// Both engines start from a fresh stream derived from the chunk
		// index, so a tripped event chunk re-runs as the exact chunk.
		return campaign.Trial(opts, "montecarlo.event", i,
			func() LossResult { return simulateLoss(c, rng.Derived(seed, uint64(i)), &scratch[worker]) },
			func() LossResult { return simulateLossEvent(c, rng.Derived(seed, uint64(i)), &scratch[worker]) })
	}, onDone, ropts, cp)
	if err != nil {
		return LossResult{}, err
	}
	acc := results[0]
	for _, r := range results[1:] {
		acc.merge(r)
	}
	return acc, nil
}
