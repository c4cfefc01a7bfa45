package montecarlo

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pride/internal/trialrunner"
)

func checkpointAt(path string) trialrunner.Checkpoint {
	return trialrunner.Checkpoint{Path: path}
}

// cancellingSink is a campaign.Sink that cancels a context after a fixed
// number of chunk completions — the test stand-in for a SIGINT landing
// mid-campaign.
type cancellingSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	chunks      int
	periods     int64
	mitigations int64
}

func (s *cancellingSink) AddPeriods(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks++
	s.periods += n
	if s.cancel != nil && s.chunks == s.cancelAfter {
		s.cancel()
	}
}

// AddActivations is a no-op: the loss campaign counts periods, not
// activations.
func (s *cancellingSink) AddActivations(int64) {}

func (s *cancellingSink) AddMitigations(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mitigations += n
}

func TestLossCampaignMatchesParallel(t *testing.T) {
	c := cfg(2, 12*4096)
	want := lossCampaign(t, c, 99, 3)
	got, err := SimulateLossCampaign(context.Background(), c, 99, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign result differs from parallel engine")
	}
}

func TestLossCampaignProgressTotals(t *testing.T) {
	c := cfg(2, 9*4096)
	sink := &cancellingSink{}
	res, err := SimulateLossCampaign(context.Background(), c, 3, CampaignOptions{Workers: 2, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sink.periods != int64(c.Periods) {
		t.Fatalf("sink saw %d periods, campaign simulated %d", sink.periods, c.Periods)
	}
	if sink.chunks != LossCampaignTrials(c) {
		t.Fatalf("sink saw %d chunks, plan has %d", sink.chunks, LossCampaignTrials(c))
	}
	if sink.mitigations != res.totalMitigations() || sink.mitigations == 0 {
		t.Fatalf("sink saw %d mitigations, result holds %d", sink.mitigations, res.totalMitigations())
	}
}

func TestLossCampaignResumeIsBitIdentical(t *testing.T) {
	c := cfg(2, 16*4096)
	const seed = 42
	want := lossCampaign(t, c, seed, 1)

	cancelPoints := []int{1, 8, 15}
	if testing.Short() {
		cancelPoints = []int{8}
	}
	for _, cancelAfter := range cancelPoints {
		for _, workers := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "loss.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			sink := &cancellingSink{cancel: cancel, cancelAfter: cancelAfter}
			_, err := SimulateLossCampaign(ctx, c, seed, CampaignOptions{
				Workers:    workers,
				Checkpoint: checkpointAt(path),
				Progress:   sink,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAfter=%d workers=%d: err = %v, want Canceled", cancelAfter, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: no checkpoint after interrupt: %v", cancelAfter, workers, err)
			}

			got, err := SimulateLossCampaign(context.Background(), c, seed, CampaignOptions{
				Workers:    workers%3 + 1,
				Checkpoint: checkpointAt(path),
			})
			if err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: resume failed: %v", cancelAfter, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cancelAfter=%d workers=%d: resumed result differs from uninterrupted run", cancelAfter, workers)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cancelAfter=%d workers=%d: completed campaign left its checkpoint behind", cancelAfter, workers)
			}
		}
	}
}

func TestLossCampaignRejectsForeignCheckpoint(t *testing.T) {
	c := cfg(2, 8*4096)
	path := filepath.Join(t.TempDir(), "loss.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, cancelAfter: 1}
	_, _ = SimulateLossCampaign(ctx, c, 7, CampaignOptions{Workers: 1, Checkpoint: checkpointAt(path), Progress: sink})
	cancel()

	// Same path, different seed: the auto key must reject the resume.
	_, err := SimulateLossCampaign(context.Background(), c, 8, CampaignOptions{Workers: 1, Checkpoint: checkpointAt(path)})
	if err == nil {
		t.Fatal("campaign resumed a checkpoint written under a different seed")
	}
}
