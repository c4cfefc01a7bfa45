package system

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trace"
)

// perACTReplay is the reference every replay must equal: it routes the
// records itself and drives each shard through a fresh bank and a
// controller built from the scheme with the shard's channel budget, one
// Activate per row. It shares no code with the replay path past
// sim.Scheme.Controller.
func perACTReplay(t *testing.T, cfg TopologyConfig, records []uint64) ReplayResult {
	t.Helper()
	top := mustTopology(t, cfg)
	comp := cfg.Mapping.MustCompile()
	rows := make([][]int, top.Shards())
	var le [8]byte
	var crc uint32
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, addr := range records {
		channel, rank, bank, row := comp.Route(addr)
		shard := (channel*top.Ranks()+rank)*top.Banks() + bank
		rows[shard] = append(rows[shard], row)
		binary.LittleEndian.PutUint64(le[:], addr)
		crc = crc32.Update(crc, table, le[:])
	}
	p := top.Params()
	res := ReplayResult{Records: uint64(len(records)), CRC32: crc}
	for shard, queue := range rows {
		channel, rank, bank := top.shardCoord(shard)
		dbank := dram.MustNewBank(p, cfg.TRH)
		scheme := cfg.Scheme
		switch len(cfg.RFMBudgets) {
		case 1:
			scheme.RFMThreshold = cfg.RFMBudgets[0]
		case top.Channels():
			scheme.RFMThreshold = cfg.RFMBudgets[channel]
		}
		ctrl := scheme.Controller(p, dbank, rng.Derived(cfg.Seed, uint64(shard)), false)
		var scr *addrmap.RowScrambler
		if cfg.ScrambleSeed != 0 {
			scr = addrmap.NewRowScrambler(p.RowsPerBank, rng.DeriveSeed(cfg.ScrambleSeed, uint64(shard)))
		}
		for _, row := range queue {
			if scr != nil {
				row = scr.Scramble(row)
			}
			ctrl.Activate(row)
		}
		st := ctrl.Stats()
		sr := ShardResult{
			Channel: channel, Rank: rank, Bank: bank,
			ACTs: st.ACTs, REFs: st.REFs, RFMs: st.RFMs,
			Mitigations: st.Mitigations, VictimRefreshes: st.VictimRefreshes,
			MaxDisturbance: dbank.MaxDisturbance(), MaxHammers: dbank.MaxHammers(),
		}
		for _, f := range dbank.Flips() {
			row := f.Row
			if scr != nil {
				row = scr.Unscramble(row)
			}
			sr.Flips = append(sr.Flips, ReplayFlip{Row: row, ACTIndex: f.ACTIndex})
		}
		res.Shards = append(res.Shards, sr)
	}
	return res
}

// TestReplayMatchesPerACTReference checks the replay's shared shard step
// against an independent per-ACT loop. The other replay tests compare one
// replay with another (worker counts, resume, retries, generator against
// trace), so a deterministic error in the step they all share would pass
// every one of them; this one would not.
func TestReplayMatchesPerACTReference(t *testing.T) {
	const n = 60000
	records, err := trace.Drain(serverSource(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every eighth record hammers a double-sided pair in one bank, so
	// victims flip and the flip records are compared too.
	comp := serverMapping().MustCompile()
	for i := 0; i < n; i += 8 {
		records[i] = comp.Encode(addrmap.Coord{Channel: 1, Bank: 2, Row: 300 + 2*(i/8%2)})
	}
	para, err := sim.SchemeByName("PARA-MC")
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, scheme := range []sim.Scheme{sim.PrIDEScheme(), sim.PrIDERFMScheme(40), para, sim.MINTScheme()} {
		for _, scramble := range []uint64{0, 77} {
			for _, budgets := range [][]int{nil, {0, 24}} {
				cfg := serverConfig(t)
				cfg.Scheme = scheme
				cfg.TRH = 120
				cfg.ScrambleSeed = scramble
				cfg.RFMBudgets = budgets
				want := perACTReplay(t, cfg, records)
				got, err := mustTopology(t, cfg).ReplayCampaign(context.Background(),
					trace.NewSliceSource(cfg.Mapping, records), ReplayOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s scramble=%d rfm=%v: replay differs from the per-ACT reference:\nreplay    %+v\nreference %+v",
						scheme.Name, scramble, budgets, got.Shards, want.Shards)
				}
				flips += want.TotalFlips()
			}
		}
	}
	if flips == 0 {
		t.Fatal("no case flipped a row; the reference compares no flip records")
	}
}
