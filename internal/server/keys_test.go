package server

import (
	"testing"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/fuzz"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/sim"
	"pride/internal/system"
)

// TestCanonicalKeysAreStable pins the checkpoint key of every campaign kind
// as a literal. A key names the files a checkpoint and a cached daemon
// result live in, so a change to any of these strings orphans every
// checkpoint and cache entry written before it. The configurations are the
// ones the CLIs build at their smoke-test arguments.
func TestCanonicalKeysAreStable(t *testing.T) {
	ddr5 := dram.DDR5()
	w := ddr5.ACTsPerTREFI()
	fig8 := montecarlo.LossConfig{Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: 30000}

	attackParams := dram.DDR5()
	attackParams.RowsPerBank = 8192
	attackParams.RowBits = 13
	fig15 := sim.AttackConfig{Params: attackParams, ACTs: 20000}
	fig18 := patterns.Fig18Suite(8192, 300, 5)

	ttfParams := dram.DDR5()
	ttfParams.RowsPerBank = 4096
	ttfParams.RowBits = 12
	ttf := system.Config{Params: ttfParams, Banks: 2, TRH: 300, MaxTREFI: 30000}

	search := fuzz.Config{
		Attack:       sim.AttackConfig{Params: attackParams, ACTs: 20000},
		Generations:  4,
		Islands:      2,
		Population:   3,
		MigrateEvery: 2,
		MaxPairs:     12,
	}

	const mapping = "col=6 bank=2 row=10 rank=0 chan=1 xor=0"
	records, crc, err := system.ReplayFingerprint(generatedSource(t, "lbm", mapping, 5000, 9))
	if err != nil {
		t.Fatal(err)
	}
	replaySpec := Spec{Kind: "replay", Seed: 9, Replay: &ReplaySpec{
		Workload: "lbm", Mapping: mapping, ACTs: 5000, Scheme: "PrIDE", TRH: 500,
	}}
	prep, err := replaySpec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	m := generatedSource(t, "lbm", mapping, 1, 9).Mapping()
	topo := system.TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: sim.PrIDEScheme(), TRH: 500, Seed: 9}

	cases := []struct {
		name, got, want string
	}{
		{"fig8-exact", montecarlo.LossCampaignKey(fig8, 9, engine.Exact),
			"montecarlo.loss|n=1|w=79|p=0.012658227848101266|periods=30000|seed=9"},
		{"fig8-event", montecarlo.LossCampaignKey(fig8, 9, engine.Event),
			"montecarlo.loss|n=1|w=79|p=0.012658227848101266|periods=30000|seed=9|engine=event"},
		{"fig15-attack", sim.AttackCampaignKey(fig15, sim.PrIDEScheme(), 3, 2, 1+uint64(len("PrIDE")), engine.Event),
			"sim.attack|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:8192 RowBits:13 MitigationsPerTREFI:1 BlastRadius:1}|acts=20000|trh=0|policy=0|patterns=3|seeds=2|seed=6|engine=event"},
		{"fig18-suite-loss", sim.SuiteLossCampaignKey(4, w, len(fig18), 40000, 5, engine.Event),
			"sim.suiteloss|n=4|w=79|patterns=2|acts=40000|seed=5|engine=event"},
		{"ttf", system.MTTFCampaignKey(ttf, sim.PrIDEScheme(), 3, 1+150, engine.Event),
			"system.mttf|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:4096 RowBits:12 MitigationsPerTREFI:1 BlastRadius:1}|banks=2|trh=300|maxtrefi=30000|trials=3|seed=151|engine=event"},
		{"fuzz-search", fuzz.SearchKey(search, sim.PrIDEScheme(), 1, engine.Event),
			"fuzz.search|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:8192 RowBits:13 MitigationsPerTREFI:1 BlastRadius:1}|acts=20000|trh=0|policy=0|gens=4|islands=2|pop=3|migrate=2|maxpairs=12|seed=1|engine=event"},
		{"replay-campaign", system.ReplayCampaignKey(topo, records, crc),
			"system.replay|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:131072 RowBits:17 MitigationsPerTREFI:1 BlastRadius:1}|mapping=col=6 bank=2 row=10 rank=0 chan=1 xor=0|trh=500|rfm=[]|scramble=0|seed=9|records=5000|crc=5f0babfe"},
		{"replay-generated-spec", prep.key,
			"server.replay-spec|workload=lbm|stream=1|scheme=PrIDE|params={TREFW:32ms TREFI:3.9µs TRFC:350ns TRC:45ns TFAWLimit:22 BanksPerRank:32 Banks:64 RowsPerBank:131072 RowBits:17 MitigationsPerTREFI:1 BlastRadius:1}|mapping=col=6 bank=2 row=10 rank=0 chan=1 xor=0|trh=500|rfm=[]|scramble=0|seed=9|records=5000"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key:\n  got  %q\n  want %q", c.name, c.got, c.want)
		}
	}
}

func TestAttackKeyMatchesCLIKey(t *testing.T) {
	// pride-attack -fig 15 runs each scheme on an 8192-row bank at base
	// seed -seed+len(scheme); a daemon attack job at that seed must file
	// under the key the CLI checkpoints under.
	spec := Spec{Kind: "attack", Seed: 6, Attack: &AttackSpec{Scheme: "PrIDE", ACTs: 20000, Patterns: 3, Seeds: 2}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	params := dram.DDR5()
	params.RowsPerBank = 8192
	params.RowBits = 13
	cfg := sim.AttackConfig{Params: params, ACTs: 20000}
	if want := sim.AttackCampaignKey(cfg, sim.PrIDEScheme(), 3, 2, 6, engine.Event); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
}

func TestTTFKeyMatchesCLIKey(t *testing.T) {
	// pride-ttfsim -trhd 150 runs a 4096-row bank at victim threshold 300
	// and seed -seed+150; a daemon ttfsim job of that configuration must
	// file under the key the CLI checkpoints under.
	spec := Spec{Kind: "ttfsim", Seed: 151, TTF: &TTFSpec{Scheme: "PrIDE", Banks: 2, TRH: 300, MaxTREFI: 30000, Trials: 3}}
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	params := dram.DDR5()
	params.RowsPerBank = 4096
	params.RowBits = 12
	cfg := system.Config{Params: params, Banks: 2, TRH: 300, MaxTREFI: 30000}
	if want := system.MTTFCampaignKey(cfg, sim.PrIDEScheme(), 3, 151, engine.Event); p.key != want {
		t.Fatalf("key = %q, want %q", p.key, want)
	}
}
