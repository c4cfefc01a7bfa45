package system

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"pride/internal/addrmap"
	"pride/internal/campaign"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trace"
	"pride/internal/trialrunner"
)

// Topology scales the per-bank model to a server: N channels × ranks × banks
// as laid out by an addrmap.Mapping, every bank owning its own
// memctrl.Controller, tracker and index-derived rng stream, with per-channel
// RFM budgets and an optional per-bank RowScrambler standing in for the
// vendor's internal row remap.
//
// Banks never interact — tFAW throttles bandwidth, not correctness, and the
// paper's security analysis is per-bank — so a trace replays as independent
// per-bank ACT streams: the demux pass shards the record stream by
// (channel, rank, bank), and a trialrunner pool drains the shards with a
// deterministic shard-order merge. Shard state is built lazily inside each
// shard's trial from index-derived seeds, so results are bit-identical at
// any worker count and across repeated replays of the same source.
//
// From its second replay on, a topology keeps the shard-queue slabs of a
// finished replay and hands them to the next one, so replaying on one
// topology again and again allocates the queues once; the slabs are
// released with the topology.
type Topology struct {
	cfg      TopologyConfig
	compiled addrmap.Compiled
	params   dram.Params // per-bank params derived from cfg.Params + Mapping
	channels int
	ranks    int
	banks    int

	mu      sync.Mutex
	replays int       // replays that have returned their slabs
	spare   [][]int32 // whole queue slabs no running replay holds
}

// TopologyConfig parameterizes a server topology.
type TopologyConfig struct {
	// Params supplies the per-bank DRAM timing parameters. The structural
	// fields (RowsPerBank, RowBits, BanksPerRank, Banks) are derived from
	// Mapping — the mapping is the single source of geometric truth.
	Params dram.Params
	// Mapping lays out physical addresses over channel/rank/bank/row.
	Mapping addrmap.Mapping
	// Scheme is the Rowhammer mitigation every bank runs.
	Scheme sim.Scheme
	// TRH is the device double-sided Rowhammer threshold under test.
	TRH int
	// Seed derives every bank's tracker stream (index-derived per shard).
	Seed uint64
	// RFMBudgets sets the per-channel RFM threshold: nil or empty uses the
	// scheme's default for every channel, one element applies to every
	// channel, and len == Channels() gives each channel its own budget —
	// the knob for asymmetric-budget experiments.
	RFMBudgets []int
	// ScrambleSeed, when nonzero, gives every bank a RowScrambler keyed by
	// DeriveSeed(ScrambleSeed, shard): trace rows are EXTERNAL addresses,
	// the bank hammers the scrambled INTERNAL geometry, and reported flips
	// are translated back to external rows.
	ScrambleSeed uint64
	// SelfCheck enables runtime invariant guards in every bank's
	// controller, bank and tracker. Not part of the checkpoint key.
	SelfCheck bool
}

// Validate reports whether the configuration is usable.
func (c TopologyConfig) Validate() error {
	if err := c.Mapping.Validate(); err != nil {
		return err
	}
	switch {
	case c.Mapping.RowBits > 30:
		return fmt.Errorf("system: mapping row width %d exceeds the 30-bit shard-queue limit", c.Mapping.RowBits)
	case c.Mapping.RowBits < 2:
		return fmt.Errorf("system: mapping row width %d cannot hold a bank (need >= 2)", c.Mapping.RowBits)
	case c.TRH < 2:
		return fmt.Errorf("system: TRH must be >= 2, got %d", c.TRH)
	case c.Scheme.New == nil:
		return fmt.Errorf("system: scheme %q has no constructor", c.Scheme.Name)
	}
	channels := 1 << c.Mapping.ChannelBits
	if n := len(c.RFMBudgets); n != 0 && n != 1 && n != channels {
		return fmt.Errorf("system: %d RFM budgets for %d channels (want 0, 1, or %d)", n, channels, channels)
	}
	for _, b := range c.RFMBudgets {
		if b < 0 {
			return fmt.Errorf("system: negative RFM budget %d", b)
		}
	}
	return nil
}

// NewTopology derives the full-server geometry from the mapping and returns
// the topology. The per-bank structural parameters are overwritten from the
// mapping; the timing parameters are taken from cfg.Params as given.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		cfg:      cfg,
		compiled: cfg.Mapping.MustCompile(),
		channels: 1 << cfg.Mapping.ChannelBits,
		ranks:    1 << cfg.Mapping.RankBits,
		banks:    1 << cfg.Mapping.BankBits,
	}
	p := cfg.Params
	p.RowBits = cfg.Mapping.RowBits
	p.RowsPerBank = 1 << cfg.Mapping.RowBits
	p.BanksPerRank = t.banks
	p.Banks = t.channels * t.ranks * t.banks
	if p.TFAWLimit > p.Banks || p.TFAWLimit <= 0 {
		p.TFAWLimit = p.Banks
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t.params = p
	return t, nil
}

// Params returns the derived per-bank parameters.
func (t *Topology) Params() dram.Params { return t.params }

// Channels returns the channel count.
func (t *Topology) Channels() int { return t.channels }

// Ranks returns the per-channel rank count.
func (t *Topology) Ranks() int { return t.ranks }

// Banks returns the per-rank bank count.
func (t *Topology) Banks() int { return t.banks }

// Shards returns the total number of independent banks (= replay shards).
func (t *Topology) Shards() int { return t.channels * t.ranks * t.banks }

// shardIndex flattens a coordinate to its shard: channel-major, then rank,
// then bank — the merge order of every replay result.
func (t *Topology) shardIndex(c addrmap.Coord) int {
	return (c.Channel*t.ranks+c.Rank)*t.banks + c.Bank
}

// shardCoord is the inverse of shardIndex.
func (t *Topology) shardCoord(shard int) (channel, rank, bank int) {
	bank = shard % t.banks
	rank = (shard / t.banks) % t.ranks
	channel = shard / (t.banks * t.ranks)
	return
}

// rfmThreshold resolves the channel's RFM budget.
func (t *Topology) rfmThreshold(channel int) int {
	switch len(t.cfg.RFMBudgets) {
	case 0:
		return t.cfg.Scheme.RFMThreshold
	case 1:
		return t.cfg.RFMBudgets[0]
	default:
		return t.cfg.RFMBudgets[channel]
	}
}

// ReplayFlip is one Rowhammer failure observed during replay, in EXTERNAL
// row addresses (unscrambled back when a RowScrambler is active) with the
// bank-local activation index at which it occurred.
type ReplayFlip struct {
	Row      int    `json:"row"`
	ACTIndex uint64 `json:"act_index"`
}

// ShardResult reports one bank's replay: the controller's command counters
// plus the bank's damage summary. It is the unit of checkpointing, so every
// field is serializable.
type ShardResult struct {
	Channel int `json:"channel"`
	Rank    int `json:"rank"`
	Bank    int `json:"bank"`

	ACTs            uint64 `json:"acts"`
	REFs            uint64 `json:"refs"`
	RFMs            uint64 `json:"rfms"`
	Mitigations     uint64 `json:"mitigations"`
	VictimRefreshes uint64 `json:"victim_refreshes"`

	MaxDisturbance int          `json:"max_disturbance"`
	MaxHammers     int          `json:"max_hammers"`
	Flips          []ReplayFlip `json:"flips,omitempty"`
}

// ReplayResult is a full-trace replay: one ShardResult per bank in shard
// order, plus the demux totals.
type ReplayResult struct {
	Shards  []ShardResult
	Records uint64
	// CRC32 fingerprints the decoded record stream (CRC-32C over the
	// little-endian record values); it keys the campaign checkpoint.
	CRC32 uint32
}

// TotalFlips counts flips across all shards.
func (r ReplayResult) TotalFlips() int {
	n := 0
	for i := range r.Shards {
		n += len(r.Shards[i].Flips)
	}
	return n
}

// ChannelSummary aggregates a replay over one channel, for fleet-level
// reporting.
type ChannelSummary struct {
	Channel         int
	ACTs            uint64
	REFs            uint64
	RFMs            uint64
	Mitigations     uint64
	VictimRefreshes uint64
	Flips           int
	MaxDisturbance  int
}

// PerChannel aggregates the shard results by channel, in channel order.
func (r ReplayResult) PerChannel() []ChannelSummary {
	var out []ChannelSummary
	byChannel := map[int]int{}
	for i := range r.Shards {
		s := &r.Shards[i]
		idx, ok := byChannel[s.Channel]
		if !ok {
			idx = len(out)
			byChannel[s.Channel] = idx
			out = append(out, ChannelSummary{Channel: s.Channel})
		}
		c := &out[idx]
		c.ACTs += s.ACTs
		c.REFs += s.REFs
		c.RFMs += s.RFMs
		c.Mitigations += s.Mitigations
		c.VictimRefreshes += s.VictimRefreshes
		c.Flips += len(s.Flips)
		if s.MaxDisturbance > c.MaxDisturbance {
			c.MaxDisturbance = s.MaxDisturbance
		}
	}
	return out
}

// ReplayOptions is the campaign contract every campaign shares; see
// campaign.Options. A replay is inherently exact — one trace record per
// demand ACT — so it rejects engine.Event. A non-empty Checkpoint.Key is
// the key the caller expects the stream to have, such as one fingerprinted
// before the replay: when the key the demux derives differs, ReplayCampaign
// fails with ErrStreamChanged, before any shard runs or any checkpoint is
// written. Progress receives per-shard activations and mitigations, and
// demuxed records and bytes when it also has AddRecords and AddBytes.
type ReplayOptions = campaign.Options

// recordSink is the optional Progress capability for counting demuxed
// trace records and their byte volume (internal/obs.Campaign implements
// it).
type recordSink interface {
	AddRecords(n int64)
	AddBytes(n int64)
}

// ErrStreamChanged marks a replay whose stream does not derive the
// checkpoint key the caller expected: the source changed since its key was
// derived, or the key belongs to another stream. Replaying the same source
// again cannot succeed until the source changes back.
var ErrStreamChanged = errors.New("system: replay stream does not match the expected key")

// ReplayCampaignKey is the canonical checkpoint key of a replay campaign:
// the topology configuration plus the decoded trace's length and
// fingerprint — everything a shard's outcome depends on, and nothing else
// (in particular not the worker count).
func ReplayCampaignKey(cfg TopologyConfig, records uint64, crc uint32) string {
	return fmt.Sprintf("system.replay|scheme=%s|params=%+v|mapping=%s|trh=%d|rfm=%v|scramble=%d|seed=%d|records=%d|crc=%08x",
		cfg.Scheme.Name, cfg.Params, cfg.Mapping.String(), cfg.TRH, cfg.RFMBudgets,
		cfg.ScrambleSeed, cfg.Seed, records, crc)
}

// demuxBatch is the record batch size of the demux pass: large enough to
// amortize the Source call, small enough to stay in cache.
const demuxBatch = 4096

// A shard queue is a chain of fixed-size row blocks carved on demand from
// shared slabs. Demux appends each row to its shard's current block and
// chains a full block instead of copying the queue to grow it, so a replay
// allocates its rows once, plus at most one partly used block per shard and
// the unused tail of the last slab.
const (
	queueBlockRows = 4 << 10   // rows per block (16 KB)
	queueSlabRows  = 256 << 10 // rows per slab (1 MB, 64 blocks)
)

// rowQueue is one shard's demuxed row stream.
type rowQueue struct {
	blocks [][]int32 // filled blocks in stream order
	tail   []int32   // block being filled; nil before the shard's first row
}

// slabArena carves one replay's queue blocks out of shared slabs: the
// topology's spare slabs first, then new ones.
type slabArena struct {
	free   []int32    // uncarved rest of the current slab
	spare  [][]int32  // whole slabs not carved yet
	used   [][]int32  // whole slabs this replay carves
	queues []rowQueue // the shard queues the blocks are carved for
}

// block returns an empty block with room for queueBlockRows rows.
func (a *slabArena) block() []int32 {
	if len(a.free) == 0 {
		if n := len(a.spare); n > 0 {
			a.free, a.spare = a.spare[n-1], a.spare[:n-1]
		} else {
			a.free = make([]int32, queueSlabRows)
		}
		a.used = append(a.used, a.free)
	}
	b := a.free[:0:queueBlockRows]
	a.free = a.free[queueBlockRows:]
	return b
}

// next chains the full tail block and starts a fresh one.
func (q *rowQueue) next(a *slabArena) {
	if q.tail != nil {
		q.blocks = append(q.blocks, q.tail)
	}
	q.tail = a.block()
}

// takeSlabs gives a replay every spare slab of the topology.
func (t *Topology) takeSlabs() *slabArena {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &slabArena{spare: t.spare}
	t.spare = nil
	return a
}

// putSlabs takes back a replay's slabs once no shard reads its queues. The
// first replay lets them go with its queues instead: a topology built for
// one replay (one CLI run, one daemon job) must not hold them after it.
// Either way the replay's own references to the slabs — the arena's slab
// lists and every queue's block list — are dropped. A stale stack word can
// keep a dead topology, arena or queue list reachable for a collection (the
// innermost frame of an asynchronously preempted goroutine is scanned
// conservatively); with those references dropped it holds at most the one
// slab it points into, not a whole replay's rows.
func (t *Topology) putSlabs(a *slabArena) {
	t.mu.Lock()
	t.replays++
	if t.replays > 1 {
		t.spare = append(append(t.spare, a.used...), a.spare...)
	}
	t.mu.Unlock()
	for i := range a.queues {
		clear(a.queues[i].blocks)
	}
	clear(a.queues)
	*a = slabArena{}
}

// demux shards the record stream by (channel, rank, bank) into per-shard
// row queues, fingerprinting the decoded records as it goes. The source's
// mapping must equal the topology's — a trace recorded under one geometry
// must not silently replay under another.
func (t *Topology) demux(src trace.Source, sink recordSink, arena *slabArena) (queues []rowQueue, records uint64, crc uint32, err error) {
	if sm := src.Mapping(); sm != t.cfg.Mapping {
		return nil, 0, 0, fmt.Errorf("system: trace mapping %s differs from topology mapping %s",
			sm.String(), t.cfg.Mapping.String())
	}
	queues = make([]rowQueue, t.Shards())
	arena.queues = queues
	var (
		batch [demuxBatch]uint64
		le    [demuxBatch * 8]byte
	)
	for {
		n, rerr := src.ReadBatch(batch[:])
		for i, addr := range batch[:n] {
			channel, rank, bank, row := t.compiled.Route(addr)
			q := &queues[(channel*t.ranks+rank)*t.banks+bank]
			if len(q.tail) == cap(q.tail) {
				q.next(arena)
			}
			q.tail = append(q.tail, int32(row))
			binary.LittleEndian.PutUint64(le[i*8:], addr)
		}
		// One CRC pass per batch: the fingerprint is over the little-endian
		// record bytes, identical to a per-record update but ~8x cheaper.
		crc = crc32.Update(crc, castagnoli, le[:n*8])
		records += uint64(n)
		if sink != nil && n > 0 {
			sink.AddRecords(int64(n))
			sink.AddBytes(int64(n) * trace.RecordSize)
		}
		if rerr == io.EOF {
			for i := range queues {
				if q := &queues[i]; len(q.tail) > 0 {
					q.blocks = append(q.blocks, q.tail)
					q.tail = nil
				}
			}
			return queues, records, crc, nil
		}
		if rerr != nil {
			return nil, 0, 0, rerr
		}
	}
}

// castagnoli is the CRC-32C table of the replay fingerprint.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReplayFingerprint drains src and returns its record count and the CRC-32C
// of its little-endian record bytes: the fingerprint demux computes, so
// ReplayCampaignKey over the two is the key a ReplayCampaign of the same
// records derives, known without replaying them. The daemon files a
// trace-file replay job under it before the job runs.
func ReplayFingerprint(src trace.Source) (records uint64, crc uint32, err error) {
	var (
		batch [demuxBatch]uint64
		le    [demuxBatch * 8]byte
	)
	for {
		n, rerr := src.ReadBatch(batch[:])
		for i, addr := range batch[:n] {
			binary.LittleEndian.PutUint64(le[i*8:], addr)
		}
		crc = crc32.Update(crc, castagnoli, le[:n*8])
		records += uint64(n)
		if rerr == io.EOF {
			return records, crc, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
}

// shardScratch is one worker's reusable replay state: the DRAM bank every
// shard it runs resets first, and the block a scrambled shard's rows are
// translated into. Both live and die with the worker's ReplayCampaign.
type shardScratch struct {
	bank *dram.Bank
	rows []int32 // queueBlockRows long once the worker ran a scrambled shard
}

// replayShard replays one bank's row queue from scratch: tracker, stream,
// controller and scrambler are built from index-derived seeds inside the
// shard, and the calling worker's scratch bank is reset first, so the
// result depends only on (config, shard, queue) — the property that makes
// replay bit-identical at any worker count, across retries and across
// resumed campaigns. Each queue block goes to the controller in one
// ActivateRows call. selfCheck arms the controller's invariant guards.
func (t *Topology) replayShard(shard int, blocks [][]int32, sc *shardScratch, selfCheck bool) ShardResult {
	channel, rank, bank := t.shardCoord(shard)
	dbank := sc.bank
	dbank.Reset()
	scheme := t.cfg.Scheme
	scheme.RFMThreshold = t.rfmThreshold(channel)
	ctrl := scheme.Controller(t.params, dbank, rng.Derived(t.cfg.Seed, uint64(shard)), selfCheck)

	var scr *addrmap.RowScrambler
	if t.cfg.ScrambleSeed != 0 {
		scr = addrmap.NewRowScrambler(t.params.RowsPerBank, rng.DeriveSeed(t.cfg.ScrambleSeed, uint64(shard)))
		if sc.rows == nil {
			sc.rows = make([]int32, queueBlockRows)
		}
	}
	for _, rows := range blocks {
		if scr != nil {
			internal := sc.rows[:len(rows)]
			for i, row := range rows {
				internal[i] = int32(scr.Scramble(int(row)))
			}
			rows = internal
		}
		ctrl.ActivateRows(rows)
	}

	stats := ctrl.Stats()
	res := ShardResult{
		Channel:         channel,
		Rank:            rank,
		Bank:            bank,
		ACTs:            stats.ACTs,
		REFs:            stats.REFs,
		RFMs:            stats.RFMs,
		Mitigations:     stats.Mitigations,
		VictimRefreshes: stats.VictimRefreshes,
		MaxDisturbance:  dbank.MaxDisturbance(),
		MaxHammers:      dbank.MaxHammers(),
	}
	for _, f := range dbank.Flips() {
		row := f.Row
		if scr != nil {
			// The bank flipped an internal row; victim accounting reports
			// the external address the attacker (and the trace) sees.
			row = scr.Unscramble(row)
		}
		res.Flips = append(res.Flips, ReplayFlip{Row: row, ACTIndex: f.ACTIndex})
	}
	return res
}

// Replay replays a trace serially: ReplayCampaign with one worker and no
// checkpoint.
func (t *Topology) Replay(src trace.Source) (ReplayResult, error) {
	return t.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 1})
}

// ReplayCampaign replays a trace across the topology: the demux pass shards
// the stream, then a trialrunner pool drains the shards with a
// deterministic shard-order merge — bit-identical at any worker count —
// with cancellation, graceful drain, durable checkpoint/resume and progress
// metering, the same campaign contract the TTF CLIs keep. opts.Engine must
// be engine.Exact, and a non-empty opts.Checkpoint.Key must equal the key
// the demuxed stream derives.
func (t *Topology) ReplayCampaign(ctx context.Context, src trace.Source, opts ReplayOptions) (ReplayResult, error) {
	if opts.Engine != engine.Exact {
		return ReplayResult{}, fmt.Errorf("system: replay runs on the exact engine only, got engine %s", opts.Engine)
	}
	arena := t.takeSlabs()
	// Deferred: MapCheckpointedWorker returns only after its workers exit,
	// so no shard reads the queues once ReplayCampaign returns.
	defer t.putSlabs(arena)
	rs, _ := opts.Progress.(recordSink)
	queues, records, crc, err := t.demux(src, rs, arena)
	if err != nil {
		return ReplayResult{}, err
	}
	cp := opts.Checkpoint
	key := ReplayCampaignKey(t.cfg, records, crc)
	if cp.Key == "" {
		cp.Key = key
	} else if cp.Key != key {
		return ReplayResult{}, fmt.Errorf("%w (the source changed since its key was derived, or the key belongs to another stream):\n  expected key: %q\n  stream's key: %q", ErrStreamChanged, cp.Key, key)
	}
	var onDone func(i int, r ShardResult) error
	if sink := opts.Progress; sink != nil {
		onDone = func(i int, r ShardResult) error {
			sink.AddActivations(int64(r.ACTs))
			sink.AddMitigations(int64(r.Mitigations))
			return nil
		}
	}
	selfCheck := t.cfg.SelfCheck || opts.SelfCheck
	ropts := opts.Runner()
	// One scratch per worker index, its bank reset at each shard's start:
	// the bank's row arrays and the scrambled-row block are the only shard
	// state that is scratch, not built from the shard index.
	scratch := make([]shardScratch, ropts.PoolSize(t.Shards()))
	shards, err := trialrunner.MapCheckpointedWorker(ctx, t.Shards(), func(worker, i int) ShardResult {
		sc := &scratch[worker]
		if sc.bank == nil {
			sc.bank = dram.MustNewBank(t.params, t.cfg.TRH)
		}
		return t.replayShard(i, queues[i].blocks, sc, selfCheck)
	}, onDone, ropts, cp)
	if err != nil {
		return ReplayResult{}, err
	}
	return ReplayResult{Shards: shards, Records: records, CRC32: crc}, nil
}
