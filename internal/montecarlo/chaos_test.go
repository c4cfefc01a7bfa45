package montecarlo

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"pride/internal/engine"
	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// TestChaosCampaignBitIdentical is the end-to-end acceptance run of the
// fault-injection harness: one seeded schedule tears a checkpoint write,
// panics a trial's first attempt, and trips an event-engine guard — and the
// campaign still completes bit-identical to the undisturbed run, with every
// recovery visible in the obs counters. InsertionProb 1 makes the event and
// exact engines bit-identical, so the forced fallback cannot perturb the
// merged result.
func TestChaosCampaignBitIdentical(t *testing.T) {
	cfg := LossConfig{Entries: 4, Window: 8, InsertionProb: 1, Periods: 20480}
	const seed = 42
	trials := LossCampaignTrials(cfg)
	if trials < 4 {
		t.Fatalf("chunk plan yields %d trials; the schedule below needs >= 4", trials)
	}

	want, err := SimulateLossCampaign(context.Background(), cfg, seed,
		CampaignOptions{Workers: 2, Engine: engine.Event})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(7)
	inj.Arm(faultinject.SiteCheckpointWrite, faultinject.Trigger{Nth: 2, Kind: faultinject.KindShortWrite})
	inj.Arm(faultinject.SiteTrialPanic, faultinject.Trigger{Nth: 2, Kind: faultinject.KindPanic})
	inj.Arm(faultinject.SiteEngineTrip, faultinject.Trigger{Nth: 3})
	camp := obs.NewCampaign("chaos", trials, 2)
	cp := trialrunner.Checkpoint{Path: t.TempDir() + "/chaos.ckpt", RetryBackoff: time.Microsecond}

	got, err := SimulateLossCampaign(context.Background(), cfg, seed, CampaignOptions{
		Workers:    2,
		Checkpoint: cp,
		Progress:   camp,
		Observer:   camp,
		Engine:     engine.Event,
		Retry:      trialrunner.RetryPolicy{Attempts: 2},
		Faults:     inj,
	})
	if err != nil {
		t.Fatalf("chaos campaign did not recover: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos campaign diverged from undisturbed run:\n got %+v\nwant %+v", got, want)
	}

	s := camp.Snapshot()
	if s.TrialRetries < 1 {
		t.Fatalf("TrialRetries = %d, want >= 1 (injected trial panic)", s.TrialRetries)
	}
	if s.EngineFallbacks < 1 {
		t.Fatalf("EngineFallbacks = %d, want >= 1 (injected engine trip)", s.EngineFallbacks)
	}
	if s.CheckpointRetries < 1 {
		t.Fatalf("CheckpointRetries = %d, want >= 1 (injected torn write)", s.CheckpointRetries)
	}
	if s.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0 (every fault recovers)", s.Quarantined)
	}
	if _, err := os.Stat(cp.Path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after recovered completion: %v", err)
	}

	// The whole schedule replays bit-identically from its seed: a second
	// armed run takes the exact same recovery path.
	for _, site := range []string{faultinject.SiteCheckpointWrite, faultinject.SiteTrialPanic, faultinject.SiteEngineTrip} {
		if inj.Fired(site) != 1 {
			t.Fatalf("site %s fired %d times, want 1", site, inj.Fired(site))
		}
	}
}

// TestForcedTripEveryTrialFallsBackToExact forces a guard trip on every
// event-engine trial: the campaign must degrade to the exact reference
// engine wholesale, matching the exact campaign bit-for-bit even at p < 1
// (where the two engines normally diverge draw-by-draw).
func TestForcedTripEveryTrialFallsBackToExact(t *testing.T) {
	cfg := LossConfig{Entries: 4, Window: 16, InsertionProb: 0.25, Periods: 20480}
	const seed = 9
	trials := LossCampaignTrials(cfg)

	exact, err := SimulateLossCampaign(context.Background(), cfg, seed,
		CampaignOptions{Workers: 2, Engine: engine.Exact})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteEngineTrip, faultinject.Trigger{Every: 1})
	camp := obs.NewCampaign("trip-all", trials, 2)
	got, err := SimulateLossCampaign(context.Background(), cfg, seed, CampaignOptions{
		Workers:  2,
		Progress: camp,
		Observer: camp,
		Engine:   engine.Event,
		Faults:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exact) {
		t.Fatal("tripped-everywhere event campaign differs from the exact campaign")
	}
	if n := camp.Snapshot().EngineFallbacks; n != int64(trials) {
		t.Fatalf("EngineFallbacks = %d, want %d (one per trial)", n, trials)
	}
}

// TestSelfCheckInvariance pins that enabling the runtime guards never
// changes a simulation result — the guards read state, they never write it.
// A healthy engine must also never trip one.
func TestSelfCheckInvariance(t *testing.T) {
	lcfg := LossConfig{Entries: 4, Window: 16, InsertionProb: 0.5, Periods: 4096}
	checked := lcfg
	checked.SelfCheck = true
	if got, want := SimulateLoss(checked, rng.New(11), engine.Exact), SimulateLoss(lcfg, rng.New(11), engine.Exact); !reflect.DeepEqual(got, want) {
		t.Fatal("SelfCheck changed SimulateLoss's result")
	}
	if got, want := SimulateLoss(checked, rng.New(11), engine.Event), SimulateLoss(lcfg, rng.New(11), engine.Event); !reflect.DeepEqual(got, want) {
		t.Fatal("SelfCheck changed the event SimulateLoss result")
	}

	rcfg := RoundConfig{Entries: 4, Window: 16, InsertionProb: 0.5, TRH: 64, Rounds: 512}
	rchecked := rcfg
	rchecked.SelfCheck = true
	if got, want := SimulateRounds(rchecked, rng.New(11), engine.Exact), SimulateRounds(rcfg, rng.New(11), engine.Exact); !reflect.DeepEqual(got, want) {
		t.Fatal("SelfCheck changed SimulateRounds's result")
	}
	if got, want := SimulateRounds(rchecked, rng.New(11), engine.Event), SimulateRounds(rcfg, rng.New(11), engine.Event); !reflect.DeepEqual(got, want) {
		t.Fatal("SelfCheck changed the event SimulateRounds result")
	}

	// Campaign-level SelfCheck (the -selfcheck flag path) is equally inert.
	plain, err := SimulateLossCampaign(context.Background(), lcfg, 5, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := SimulateLossCampaign(context.Background(), lcfg, 5, CampaignOptions{Workers: 2, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, guarded) {
		t.Fatal("-selfcheck changed the campaign result")
	}
}
