package system

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// ttfSink is a campaign.Sink that can cancel a context after a fixed number
// of completed trials.
type ttfSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	trials      int
	periods     int64
}

func (s *ttfSink) AddPeriods(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trials++
	s.periods += n
	if s.cancel != nil && s.trials == s.cancelAfter {
		s.cancel()
	}
}

// The TTF campaign counts periods only.
func (s *ttfSink) AddActivations(int64) {}
func (s *ttfSink) AddMitigations(int64) {}

func TestMTTFCampaignMatchesParallel(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	const trials, seed = 4, 7
	wantMean, wantFailed := mttfCampaign(t, cfg, sim.PrIDEScheme(), trials, seed, 2)

	sink := &ttfSink{}
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed,
		CampaignOptions{Workers: 3, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if mean != wantMean || failed != wantFailed {
		t.Fatalf("campaign (%v, %d) differs from parallel (%v, %d)", mean, failed, wantMean, wantFailed)
	}
	if sink.trials != trials || sink.periods <= 0 || sink.periods > int64(trials)*int64(cfg.MaxTREFI) {
		t.Fatalf("sink metered %d trials / %d periods over %d x <=%d", sink.trials, sink.periods, trials, cfg.MaxTREFI)
	}
}

func TestMTTFCampaignResumeIsBitIdentical(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	const trials, seed = 4, 9
	wantMean, wantFailed := mttfCampaign(t, cfg, sim.PrIDEScheme(), trials, seed, 1)

	path := filepath.Join(t.TempDir(), "mttf.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &ttfSink{cancel: cancel, cancelAfter: 1}
	_, _, err := MeasureMTTFCampaign(ctx, cfg, sim.PrIDEScheme(), trials, seed, CampaignOptions{
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: path},
		Progress:   sink,
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, sim.PrIDEScheme(), trials, seed, CampaignOptions{
		Workers:    2,
		Checkpoint: trialrunner.Checkpoint{Path: path},
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	// The mean folds trial durations in index order, so even the float sum is
	// reproduced exactly on resume.
	if mean != wantMean || failed != wantFailed {
		t.Fatalf("resumed (%v, %d) differs from uninterrupted (%v, %d)", mean, failed, wantMean, wantFailed)
	}
}
