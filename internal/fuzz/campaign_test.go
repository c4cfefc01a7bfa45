package fuzz

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pride/internal/campaign"
	"pride/internal/engine"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// searchSink is a campaign.Sink that can cancel a context after a fixed
// number of completed epochs — the test stand-in for a SIGINT landing
// mid-search.
type searchSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	epochs      int
	activations int64
}

func (s *searchSink) AddActivations(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochs++
	s.activations += n
	if s.cancel != nil && s.epochs == s.cancelAfter {
		s.cancel()
	}
}

// The search counts activations only.
func (s *searchSink) AddPeriods(int64)     {}
func (s *searchSink) AddMitigations(int64) {}

func TestSearchCampaignIsWorkerInvariant(t *testing.T) {
	cfg := fuzzConfig()
	want := search(t, cfg, sim.PrIDEScheme(), 11) // default workers
	for _, workers := range []int{1, 2, 5} {
		got, err := SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), 11,
			campaign.Options{Engine: engine.Event, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result differs from default-worker run:\n%+v\nvs\n%+v",
				workers, got, want)
		}
	}
}

func TestSearchCampaignMeters(t *testing.T) {
	cfg := fuzzConfig()
	sink := &searchSink{}
	_, err := SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), 11,
		campaign.Options{Engine: engine.Event, Workers: 2, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sink.epochs != cfg.Epochs() {
		t.Fatalf("progress updates = %d, want one per epoch (%d)", sink.epochs, cfg.Epochs())
	}
	wantActs := int64(cfg.Islands*cfg.Population*(cfg.Generations+1)) * int64(cfg.Attack.ACTs)
	if sink.activations != wantActs {
		t.Fatalf("metered activations = %d, want %d", sink.activations, wantActs)
	}
}

func TestSearchCampaignResumeIsBitIdentical(t *testing.T) {
	cfg := fuzzConfig()
	const seed = 23
	want := search(t, cfg, sim.PrIDEScheme(), seed)

	cancelPoints := []int{1, 2}
	if testing.Short() {
		cancelPoints = []int{1}
	}
	for _, cancelAfter := range cancelPoints {
		for _, workers := range []int{1, 4} {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			sink := &searchSink{cancel: cancel, cancelAfter: cancelAfter}
			_, err := SearchCampaign(ctx, cfg, sim.PrIDEScheme(), seed, campaign.Options{Engine: engine.Event,
				Workers:    workers,
				Checkpoint: trialrunner.Checkpoint{Path: path},
				Progress:   sink,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAfter=%d workers=%d: err = %v, want Canceled", cancelAfter, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: no checkpoint after interrupt: %v", cancelAfter, workers, err)
			}

			got, err := SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), seed, campaign.Options{Engine: engine.Event,
				Workers:    workers%3 + 1,
				Checkpoint: trialrunner.Checkpoint{Path: path},
			})
			if err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: resume failed: %v", cancelAfter, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cancelAfter=%d workers=%d: resumed result differs from uninterrupted:\n%+v\nvs\n%+v",
					cancelAfter, workers, got, want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cancelAfter=%d workers=%d: completed search left its checkpoint behind", cancelAfter, workers)
			}
		}
	}
}

func TestSearchCampaignRejectsStaleCheckpoint(t *testing.T) {
	cfg := fuzzConfig()
	path := filepath.Join(t.TempDir(), "search.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	sink := &searchSink{cancel: cancel, cancelAfter: 1}
	_, err := SearchCampaign(ctx, cfg, sim.PrIDEScheme(), 5, campaign.Options{Engine: engine.Event,
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: path},
		Progress:   sink,
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	// Resuming under a different seed is a different experiment.
	_, err = SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), 6, campaign.Options{Engine: engine.Event,
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: path},
	})
	if !errors.Is(err, trialrunner.ErrStaleCheckpoint) {
		t.Fatalf("resume under different seed: err = %v, want ErrStaleCheckpoint", err)
	}

	// ForceFresh archives the stale file and completes.
	got, err := SearchCampaign(context.Background(), cfg, sim.PrIDEScheme(), 6, campaign.Options{Engine: engine.Event,
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: path, ForceFresh: true},
	})
	if err != nil {
		t.Fatalf("forced fresh run failed: %v", err)
	}
	if !reflect.DeepEqual(got, search(t, cfg, sim.PrIDEScheme(), 6)) {
		t.Fatal("forced fresh run differs from a clean run")
	}
	if _, err := os.Stat(path + ".stale"); err != nil {
		t.Fatalf("stale checkpoint was not archived: %v", err)
	}
}
