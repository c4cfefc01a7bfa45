package system

import (
	"reflect"
	"testing"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trace"
)

// demuxEntries demuxes records on top alone, without running a shard, and
// returns every shard's queue entries in order.
func demuxEntries(t *testing.T, top *Topology, records []uint64) [][]uint32 {
	t.Helper()
	arena := top.takeSlabs()
	defer top.putSlabs(arena)
	queues, n, _, err := top.demux(trace.NewSliceSource(top.cfg.Mapping, records), nil, arena)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(records)) {
		t.Fatalf("demuxed %d records, want %d", n, len(records))
	}
	entries := make([][]uint32, len(queues))
	for i, q := range queues {
		for _, b := range q.blocks {
			entries[i] = append(entries[i], b...)
		}
	}
	return entries
}

// expandRows expands a shard's entries through expandQueue in blocks of
// block rows and returns the rows, checking that every block but the last
// is full.
func expandRows(t *testing.T, entries []uint32, rowBits, block int) []int32 {
	t.Helper()
	var rows []int32
	calls := 0
	expandQueue([][]uint32{entries}, rowBits, nil, make([]int32, block+spill), func(b []int32) {
		if calls > 0 && len(rows)%block != 0 {
			t.Fatalf("block %d follows a short block", calls)
		}
		if len(b) == 0 || len(b) > block {
			t.Fatalf("block %d has %d rows, want 1..%d", calls, len(b), block)
		}
		calls++
		rows = append(rows, b...)
	})
	return rows
}

// TestReplayQueueRunCap demuxes under a 30-bit-row mapping, whose entries
// have a 2-bit run field: a run of 10 identical records, between two runs
// of another shard, must become entries of 4, 4 and 2 records and expand
// back to the same 10 rows. Only demux runs, so no 2^30-row bank is built.
func TestReplayQueueRunCap(t *testing.T) {
	cfg := serverConfig(t)
	cfg.Mapping = addrmap.Mapping{ColumnBits: 2, BankBits: 1, RowBits: 30}
	top := mustTopology(t, cfg)
	comp := cfg.Mapping.MustCompile()
	const row = 1<<30 - 3
	a := comp.Encode(addrmap.Coord{Bank: 1, Row: row})
	b := comp.Encode(addrmap.Coord{Bank: 0, Row: 5})
	var records []uint64
	for _, run := range []struct {
		addr uint64
		n    int
	}{{b, 3}, {a, 10}, {b, 5}} {
		for i := 0; i < run.n; i++ {
			records = append(records, run.addr)
		}
	}
	entries := demuxEntries(t, top, records)
	entry := func(row uint32, run int) uint32 { return row | uint32(run-1)<<30 }
	if want := []uint32{entry(row, 4), entry(row, 4), entry(row, 2)}; !reflect.DeepEqual(entries[1], want) {
		t.Fatalf("shard 1 entries %#x, want %#x", entries[1], want)
	}
	if want := []uint32{entry(5, 3), entry(5, 4), entry(5, 1)}; !reflect.DeepEqual(entries[0], want) {
		t.Fatalf("shard 0 entries %#x, want %#x", entries[0], want)
	}
	for _, block := range []int{1, 3, 4, 4096} {
		rows := expandRows(t, entries[1], 30, block)
		if len(rows) != 10 {
			t.Fatalf("block %d: shard 1 expands to %d rows, want 10", block, len(rows))
		}
		for i, r := range rows {
			if r != row {
				t.Fatalf("block %d: expanded row %d is %d, want %d", block, i, r, row)
			}
		}
	}
}

// TestReplayDemuxRunsExpandToRecords checks demux and expandQueue together
// against per-record routing: every shard's entries must expand to exactly
// the rows Compiled.Route gives its records, in order, and the entries must
// number the runs of the stream, split where a run fills its field.
// The streams have runs that cross demux batch boundaries, fill the run
// field of a 30-bit-row entry, and alternate shards.
func TestReplayDemuxRunsExpandToRecords(t *testing.T) {
	mappings := []addrmap.Mapping{
		serverMapping(),
		{ColumnBits: 2, BankBits: 1, RowBits: 30},
		{ColumnBits: 3, BankBits: 2, RowBits: 20, RankBits: 2, ChannelBits: 3, XORBankHash: true},
	}
	for _, m := range mappings {
		comp := m.MustCompile()
		r := rng.New(uint64(m.RowBits))
		addr := func() uint64 {
			return comp.Encode(addrmap.Coord{
				Channel: r.Intn(comp.Channels()), Rank: r.Intn(comp.Ranks()),
				Bank: r.Intn(comp.Banks()), Row: r.Intn(comp.Rows()),
			})
		}
		var records []uint64
		// Runs of every length up to 12, then runs that straddle the
		// first batch boundary and span a whole batch, then a tail of
		// single records and a repeat of the first record. The run that
		// spans a batch fills its last 30-bit-row entry of that batch, so
		// the next batch opens on a full entry.
		for n := 1; n <= 12; n++ {
			a := addr()
			for i := 0; i < n; i++ {
				records = append(records, a)
			}
		}
		for _, n := range []int{demuxBatch - len(records) - 2, 6, demuxBatch + 3, 1} {
			a := addr()
			for i := 0; i < n; i++ {
				records = append(records, a)
			}
		}
		for i := 0; i < 300; i++ {
			records = append(records, addr())
		}
		records = append(records, records[0])

		cfg := serverConfig(t)
		cfg.Mapping = m
		top := mustTopology(t, cfg)
		entries := demuxEntries(t, top, records)
		want := make([][]int32, top.Shards())
		for _, a := range records {
			channel, rank, bank, row := comp.Route(a)
			shard := top.shardIndex(addrmap.Coord{Channel: channel, Rank: rank, Bank: bank})
			want[shard] = append(want[shard], int32(row))
		}
		for shard := range want {
			for _, block := range []int{7, queueBlockRows} {
				if got := expandRows(t, entries[shard], m.RowBits, block); !reflect.DeepEqual(got, want[shard]) && len(want[shard])+len(got) > 0 {
					t.Fatalf("%s shard %d, block %d: expands to %d rows that differ from its %d routed records", m, shard, block, len(got), len(want[shard]))
				}
			}
		}
		total := 0
		for _, e := range entries {
			total += len(e)
		}
		if want := queueEntries(records, m.RowBits); uint64(total) != want {
			t.Fatalf("%s: %d entries, want %d (one per run of the stream, split where the run field fills)", m, total, want)
		}
	}
}

// TestTopologyRouterMatchesRoute checks the demux's one-pass router against
// Compiled.Route and shardIndex on random addresses, high bits outside the
// mapping included, over mappings with and without ranks, channels, banks
// and the XOR hash.
func TestTopologyRouterMatchesRoute(t *testing.T) {
	r := rng.New(9)
	for _, m := range []addrmap.Mapping{
		serverMapping(),
		addrmap.DefaultDDR5(),
		{ColumnBits: 0, BankBits: 0, RowBits: 12},
		{ColumnBits: 6, BankBits: 4, RowBits: 14, RankBits: 1, ChannelBits: 2, XORBankHash: true},
		{ColumnBits: 1, BankBits: 3, RowBits: 30, RankBits: 3, ChannelBits: 0},
		{ColumnBits: 5, BankBits: 2, RowBits: 9, RankBits: 0, ChannelBits: 4, XORBankHash: true},
	} {
		cfg := TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: sim.PrIDEScheme(), TRH: 500}
		top := mustTopology(t, cfg)
		comp := m.MustCompile()
		for i := 0; i < 10000; i++ {
			addr := r.Uint64()
			channel, rank, bank, row := comp.Route(addr)
			shard, gotRow := top.route.route(addr)
			if want := top.shardIndex(addrmap.Coord{Channel: channel, Rank: rank, Bank: bank}); shard != want || int(gotRow) != row {
				t.Fatalf("%s: addr %#x routes to shard %d row %d, want shard %d row %d", m, addr, shard, gotRow, want, row)
			}
		}
	}
}
