package server

import (
	"context"
	"strings"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/workload"
)

func TestSpecPrepareValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"no sub-spec", Spec{Kind: "security"}, "exactly one"},
		{"two sub-specs", Spec{Kind: "security", Security: &SecuritySpec{Periods: 1}, TTF: &TTFSpec{}}, "exactly one"},
		{"kind/sub-spec mismatch", Spec{Kind: "security", TTF: &TTFSpec{}}, `kind "security" requires`},
		{"unknown kind", Spec{Kind: "nope", Security: &SecuritySpec{Periods: 1}}, "unknown kind"},
		{"unknown engine", Spec{Kind: "security", Engine: "warp", Security: &SecuritySpec{Periods: 1}}, "unknown engine"},
		{"bad periods", Spec{Kind: "security", Security: &SecuritySpec{Periods: -1}}, "Periods"},
		{"unknown scheme", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "nope", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 1}}, "unknown scheme"},
		{"bad trials", Spec{Kind: "ttfsim", TTF: &TTFSpec{Scheme: "PrIDE", Banks: 1, TRH: 100, MaxTREFI: 10, Trials: 0}}, "trials"},
		{"bad acts", Spec{Kind: "attack", Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 0}}, "ACTs"},
		{"replay both sources", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "lbm", TracePath: "/t", Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay neither source", Spec{Kind: "replay", Replay: &ReplaySpec{Scheme: "PrIDE", TRH: 500}}, "exactly one of workload"},
		{"replay engine rejected", Spec{Kind: "replay", Engine: "exact", Replay: &ReplaySpec{Workload: "lbm", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "inherently exact"},
		{"replay unknown workload", Spec{Kind: "replay", Replay: &ReplaySpec{Workload: "quake", ACTs: 10, Mapping: "col=6 bank=2 row=10 rank=0 chan=0 xor=0", Scheme: "PrIDE", TRH: 500}}, "unknown workload"},
	}
	for _, tc := range cases {
		_, err := tc.spec.prepare()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSecurityKeyMatchesCLIKey(t *testing.T) {
	// The server's cache key must be the exact checkpoint key the
	// equivalent CLI run derives — that identity is what makes a CLI
	// checkpoint and a server cache entry interchangeable descriptions of
	// the same computation.
	spec := Spec{Kind: "security", Seed: 42, Security: &SecuritySpec{Entries: 2, Window: 16, Periods: 1000}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := montecarlo.LossConfig{Entries: 2, Window: 16, InsertionProb: 1.0 / 16, Periods: 1000}
	if want := montecarlo.LossCampaignKey(cfg, 42, engine.Event); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
}

func TestReplayKeyMatchesCampaignKey(t *testing.T) {
	// A generated replay job is filed under a key computed at submit time,
	// before anything replays; it must be the key a direct ReplayCampaign
	// over the same generated records derives, so a CLI checkpoint and a
	// server cache entry describe the same computation.
	const mapping = "col=6 bank=3 row=13 rank=1 chan=2 xor=1"
	spec := Spec{Kind: "replay", Seed: 11, Replay: &ReplaySpec{
		Workload: "mcf", Mapping: mapping, ACTs: 30000, Scheme: "PrIDE", TRH: 500,
	}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}

	var wspec workload.Spec
	for _, w := range workload.All() {
		if w.Name == "mcf" {
			wspec = w
		}
	}
	m, err := addrmap.ParseMapping(mapping)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := sim.SchemeByName("PrIDE")
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: scheme, TRH: 500, Seed: 11}
	topo, err := system.NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topo.ReplayCampaign(context.Background(), workload.NewAddrSource(wspec, m, 30000, 11), system.ReplayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := system.ReplayCampaignKey(cfg, res.Records, res.CRC32); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
}

func TestSpecKeyIgnoresExecutionHints(t *testing.T) {
	base := Spec{Kind: "security", Seed: 1, Security: &SecuritySpec{Periods: 100}}
	p1, err := base.prepare()
	if err != nil {
		t.Fatal(err)
	}
	hinted := base
	hinted.Workers = 7
	hinted.TrialRetries = 3
	p2, err := hinted.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("execution hints changed the cache key:\n  %q\n  %q", p1.key, p2.key)
	}
	if jobID(p1.key) != jobID(p2.key) {
		t.Fatal("job IDs differ for equal keys")
	}
}

func TestReplayKeyStableAcrossPrepares(t *testing.T) {
	spec := Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: "col=6 bank=2 row=10 rank=0 chan=1 xor=0",
		ACTs: 5000, Scheme: "PrIDE", TRH: 500,
	}}
	p1, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("replay key not stable:\n  %q\n  %q", p1.key, p2.key)
	}
	if !strings.Contains(p1.key, "records=5000") {
		t.Fatalf("replay key %q does not pin the record count", p1.key)
	}
}

// TestReplaySpecDocMappingValidates pins the ReplaySpec.Mapping doc
// comment's example: a client copying it gets a valid spec.
func TestReplaySpecDocMappingValidates(t *testing.T) {
	spec := Spec{Kind: "replay", Seed: 1, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: "col=6 bank=3 row=13 rank=1 chan=2 xor=1",
		ACTs: 1000, Scheme: "PrIDE", TRH: 500,
	}}
	if _, err := spec.prepare(); err != nil {
		t.Fatalf("the documented mapping example is rejected: %v", err)
	}
}

func TestJobIDAndSeedAreDeterministic(t *testing.T) {
	if jobID("k") != jobID("k") || jobSeed("k") != jobSeed("k") {
		t.Fatal("jobID/jobSeed not deterministic")
	}
	if jobID("a") == jobID("b") {
		t.Fatal("distinct keys collided")
	}
	if len(jobID("x")) != 16 {
		t.Fatalf("jobID length = %d, want 16", len(jobID("x")))
	}
}
