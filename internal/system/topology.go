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
	route    router
	params   dram.Params // per-bank params derived from cfg.Params + Mapping
	channels int
	ranks    int
	banks    int

	mu      sync.Mutex
	replays int        // replays that have returned their slabs
	spare   [][]uint32 // whole queue slabs no running replay holds
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
		route:    newRouter(cfg.Mapping),
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

// router routes a record to its shard and row in one pass: what
// Compiled.Route returns, with the channel, rank and bank flattened to the
// shard, channel-major, then rank, then bank — the merge order of every
// replay result. The mapping lays the rank and channel fields side by side
// right above the row (addrmap.Mapping), so one extraction yields
// channel<<RankBits | rank, which shifted over the bank bits is the high
// part of the shard index — no per-record multiply. Every shift count is
// masked to 63, so the compiler drops its checks for counts of 64 and up.
type router struct {
	bankShift, rowShift, rankShift, bankBits uint
	bankMask, rowMask, xorMask, chanRankMask uint64
}

func newRouter(m addrmap.Mapping) router {
	mask := func(bits int) uint64 { return 1<<uint(bits) - 1 }
	r := router{
		bankShift:    uint(m.ColumnBits),
		rowShift:     uint(m.ColumnBits + m.BankBits),
		rankShift:    uint(m.ColumnBits + m.BankBits + m.RowBits),
		bankBits:     uint(m.BankBits),
		bankMask:     mask(m.BankBits),
		rowMask:      mask(m.RowBits),
		chanRankMask: mask(m.RankBits + m.ChannelBits),
	}
	if m.XORBankHash {
		r.xorMask = r.bankMask
	}
	return r
}

// route returns addr's shard and its row.
func (r *router) route(addr uint64) (shard int, row uint32) {
	rw := (addr >> (r.rowShift & 63)) & r.rowMask
	bank := ((addr >> (r.bankShift & 63)) & r.bankMask) ^ (rw & r.xorMask)
	chanRank := (addr >> (r.rankShift & 63)) & r.chanRankMask
	return int(chanRank<<(r.bankBits&63) | bank), uint32(rw)
}

// shardCoord returns the channel, rank and bank of a shard as router
// numbers them.
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

// A shard queue is a chain of fixed-size blocks of 32-bit entries carved on
// demand from shared slabs. Each entry is a run: a stretch of identical
// consecutive records of the stream, all one row of one shard. The row
// sits in the low RowBits bits of the entry and the run length minus one
// in the high 32-RowBits bits (Validate caps RowBits at 30, so a run field
// has at least 2 bits); a longer run continues in the next entry. Demux
// appends each run to its shard's current block and chains a full block
// instead of copying the queue to grow it, so a replay allocates 4 B per
// run, plus at most one partly used block per shard and the unused tail of
// the last slab. queueBlockRows also sizes the row block a shard's entries
// expand into.
const (
	queueBlockRows = 4 << 10   // entries per block (16 KB), rows per expanded block
	queueSlabRows  = 256 << 10 // entries per slab (1 MB, 64 blocks)
)

// rowQueue is one shard's demuxed stream of run entries.
type rowQueue struct {
	blocks [][]uint32 // filled blocks in stream order
	tail   []uint32   // block being filled; nil before the shard's first run
}

// slabArena carves one replay's queue blocks out of shared slabs: the
// topology's spare slabs first, then new ones.
type slabArena struct {
	free   []uint32   // uncarved rest of the current slab
	spare  [][]uint32 // whole slabs not carved yet
	used   [][]uint32 // whole slabs this replay carves
	queues []rowQueue // the shard queues the blocks are carved for
}

// block returns an empty block with room for queueBlockRows entries.
func (a *slabArena) block() []uint32 {
	if len(a.free) == 0 {
		if n := len(a.spare); n > 0 {
			a.free, a.spare = a.spare[n-1], a.spare[:n-1]
		} else {
			a.free = make([]uint32, queueSlabRows)
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
// queues of run entries, fingerprinting the decoded records as it goes. A
// record identical to the one before it routes to the same shard and row,
// so it only lengthens the open entry and is not routed again. The
// source's mapping must equal the topology's — a trace recorded under one
// geometry must not silently replay under another.
func (t *Topology) demux(src trace.Source, sink recordSink, arena *slabArena) (queues []rowQueue, records uint64, crc uint32, err error) {
	if sm := src.Mapping(); sm != t.cfg.Mapping {
		return nil, 0, 0, fmt.Errorf("system: trace mapping %s differs from topology mapping %s",
			sm.String(), t.cfg.Mapping.String())
	}
	queues = make([]rowQueue, t.Shards())
	arena.queues = queues
	w := queueWriter{queues: queues, arena: arena, route: t.route, rowBits: uint(t.cfg.Mapping.RowBits) & 31}
	var (
		batch [demuxBatch]uint64
		ends  [demuxBatch]int32
	)
	for {
		n, rerr := src.ReadBatch(batch[:])
		// The fingerprint reads the records before collapseRuns folds them.
		crc = recordCRC(crc, batch[:n])
		runs := collapseRuns(batch[:n], ends[:n])
		w.push(batch[:runs], ends[:runs])
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

// queueWriter appends runs of records to their shard queues as entries. It
// keeps the entry the last run went into open across batches, so a run a
// batch boundary cuts stays one run.
type queueWriter struct {
	queues  []rowQueue
	arena   *slabArena
	route   router
	rowBits uint
	prev    uint64  // the record of the last run
	open    *uint32 // the entry that run ends in; nil before the first run
}

// push appends the runs collapseRuns made of a batch: run r is ends[r]
// copies of runs[r] less those of the runs before it. A run longer than an
// entry can count goes on in the next entry.
func (w *queueWriter) push(runs []uint64, ends []int32) {
	queues, arena, route, rowBits := w.queues, w.arena, w.route, w.rowBits
	maxRun := 1 << (32 - rowBits) // the records one entry can count
	start, first := 0, 0
	if len(runs) > 0 && w.open != nil && runs[0] == w.prev {
		// The batch opens with the run the last batch closed with:
		// lengthen its entry as far as the run field counts.
		add := min(int(ends[0]), maxRun-int(*w.open>>rowBits)-1)
		*w.open += uint32(add) << rowBits
		start = add
		if add == int(ends[0]) {
			first = 1
		}
	}
	open := w.open
	for r := first; r < len(runs); r++ {
		run := int(ends[r]) - start
		start = int(ends[r])
		shard, row := route.route(runs[r])
		q := &queues[shard]
		for {
			k := min(run, maxRun)
			if len(q.tail) == cap(q.tail) {
				q.next(arena)
			}
			q.tail = append(q.tail, row|uint32(k-1)<<rowBits)
			if run -= k; run == 0 {
				break
			}
		}
		open = &q.tail[len(q.tail)-1]
	}
	if len(runs) > 0 {
		w.prev, w.open = runs[len(runs)-1], open
	}
}

// collapseRuns overwrites recs[:runs] with the record of each run of
// identical consecutive records in recs and ends[:runs] with the index one
// past the run's last record, and returns runs. About half the records of
// a replay repeat the one before them, in no order a branch predictor
// learns, so the run test is a conditional increment, not a branch.
func collapseRuns(recs []uint64, ends []int32) int {
	if len(recs) == 0 {
		return 0
	}
	j, prev := 0, recs[0]
	for i, addr := range recs {
		if addr != prev {
			j++
		}
		recs[j] = addr
		ends[j] = int32(i + 1)
		prev = addr
	}
	return j + 1
}

// castagnoli is the CRC-32C table of the replay fingerprint.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC folds recs into the replay fingerprint, CRC-32C over their
// little-endian bytes: one pass over the batch's own memory where the host
// lays the records out that way, a copy through encoding/binary elsewhere.
func recordCRC(crc uint32, recs []uint64) uint32 {
	if b, ok := trace.RecordBytes(recs); ok {
		return crc32.Update(crc, castagnoli, b)
	}
	var le [512 * trace.RecordSize]byte
	for len(recs) > 0 {
		k := min(len(recs), len(le)/trace.RecordSize)
		for i, addr := range recs[:k] {
			binary.LittleEndian.PutUint64(le[i*trace.RecordSize:], addr)
		}
		crc = crc32.Update(crc, castagnoli, le[:k*trace.RecordSize])
		recs = recs[k:]
	}
	return crc
}

// ReplayFingerprint drains src and returns its record count and the CRC-32C
// of its little-endian record bytes: the fingerprint demux computes, so
// ReplayCampaignKey over the two is the key a ReplayCampaign of the same
// records derives, known without replaying them. The daemon files a
// trace-file replay job under it before the job runs.
func ReplayFingerprint(src trace.Source) (records uint64, crc uint32, err error) {
	var batch [demuxBatch]uint64
	for {
		n, rerr := src.ReadBatch(batch[:])
		crc = recordCRC(crc, batch[:n])
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
// shard it runs resets first, and the row block its queue entries expand
// into. Both live and die with the worker's ReplayCampaign.
type shardScratch struct {
	bank *dram.Bank
	rows []int32 // queueBlockRows+spill long
}

// spill is how many copies of its row expandQueue writes for an entry at a
// time, whatever the entry's run: a store of fixed length costs less than a
// loop whose exit depends on the run, and most runs fit in one. The store
// is one 8-wide assignment, so spill is 8.
const spill = 8

// expandQueue hands a shard queue's rows to activate in blocks of
// len(buf)-spill rows, every block full but the last: each entry's row
// repeated for its run. The spill slots past the block take the copies a
// write makes beyond it. With scr non-nil an entry's row is scrambled once
// for the whole run.
func expandQueue(blocks [][]uint32, rowBits int, scr *addrmap.RowScrambler, buf []int32, activate func(rows []int32)) {
	shift := uint(rowBits) & 31
	rowMask := uint32(1)<<shift - 1
	size := len(buf) - spill
	n := 0
	for _, entries := range blocks {
		for _, e := range entries {
			row := int32(e & rowMask)
			if scr != nil {
				row = int32(scr.Scramble(int(row)))
			}
			for run := int(e>>shift) + 1; ; {
				w := buf[n : n+spill : n+spill]
				w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = row, row, row, row, row, row, row, row
				k := min(run, spill)
				for n += k; n >= size; {
					activate(buf[:size])
					// The rows written past the block are this run's:
					// they start the next block.
					n = copy(buf, buf[size:n])
				}
				if run -= k; run == 0 {
					break
				}
			}
		}
	}
	if n > 0 {
		activate(buf[:n])
	}
}

// replayShard replays one bank's queue from scratch: tracker, stream,
// controller and scrambler are built from index-derived seeds inside the
// shard, and the calling worker's scratch bank is reset first, so the
// result depends only on (config, shard, queue) — the property that makes
// replay bit-identical at any worker count, across retries and across
// resumed campaigns. The queue's entries expand into the worker's row
// block, and each full block goes to the controller in one ActivateRows
// call — the blocks a queue of one row per record would give it.
// selfCheck arms the controller's invariant guards.
func (t *Topology) replayShard(shard int, blocks [][]uint32, sc *shardScratch, selfCheck bool) ShardResult {
	channel, rank, bank := t.shardCoord(shard)
	dbank := sc.bank
	dbank.Reset()
	scheme := t.cfg.Scheme
	scheme.RFMThreshold = t.rfmThreshold(channel)
	ctrl := scheme.Controller(t.params, dbank, rng.Derived(t.cfg.Seed, uint64(shard)), selfCheck)

	var scr *addrmap.RowScrambler
	if t.cfg.ScrambleSeed != 0 {
		scr = addrmap.NewRowScrambler(t.params.RowsPerBank, rng.DeriveSeed(t.cfg.ScrambleSeed, uint64(shard)))
	}
	if sc.rows == nil {
		sc.rows = make([]int32, queueBlockRows+spill)
	}
	expandQueue(blocks, t.params.RowBits, scr, sc.rows, ctrl.ActivateRows)

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
	// the bank's row arrays and the expanded row block are the only shard
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
