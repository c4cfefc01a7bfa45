package system

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trace"
	"pride/internal/tracker"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

// serverMapping is a 2-channel × 1-rank × 4-bank × 1K-row test topology:
// small enough that replays run in milliseconds, wide enough that every
// addrmap field is exercised end-to-end.
func serverMapping() addrmap.Mapping {
	return addrmap.Mapping{ColumnBits: 4, BankBits: 2, RowBits: 10, RankBits: 0, ChannelBits: 1, XORBankHash: true}
}

func serverConfig(t *testing.T) TopologyConfig {
	t.Helper()
	return TopologyConfig{
		Params:  dram.DDR5(),
		Mapping: serverMapping(),
		Scheme:  sim.PrIDEScheme(),
		TRH:     500,
		Seed:    42,
	}
}

func serverSource(n int) *workload.AddrSource {
	spec := workload.Spec{Name: "lbm", MPKI: 45, RowHitRate: 0.75, MLP: 5}
	return workload.NewAddrSource(spec, serverMapping(), n, 7)
}

func TestTopologyGeometry(t *testing.T) {
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if top.Channels() != 2 || top.Ranks() != 1 || top.Banks() != 4 || top.Shards() != 8 {
		t.Fatalf("geometry: ch=%d rk=%d bk=%d shards=%d", top.Channels(), top.Ranks(), top.Banks(), top.Shards())
	}
	p := top.Params()
	if p.RowsPerBank != 1024 || p.RowBits != 10 || p.BanksPerRank != 4 || p.Banks != 8 {
		t.Fatalf("derived params: %+v", p)
	}
	if p.TFAWLimit > p.Banks {
		t.Fatalf("TFAWLimit %d exceeds %d banks", p.TFAWLimit, p.Banks)
	}
	// Round-trip shard index <-> coordinate.
	for shard := 0; shard < top.Shards(); shard++ {
		ch, rk, bk := top.shardCoord(shard)
		if got := top.shardIndex(addrmap.Coord{Channel: ch, Rank: rk, Bank: bk}); got != shard {
			t.Fatalf("shard %d -> (%d,%d,%d) -> %d", shard, ch, rk, bk, got)
		}
	}
}

func TestTopologyConfigRejects(t *testing.T) {
	base := serverConfig(t)
	cases := map[string]func(c *TopologyConfig){
		"bad mapping":     func(c *TopologyConfig) { c.Mapping.RowBits = 0 },
		"huge rows":       func(c *TopologyConfig) { c.Mapping.RowBits = 31; c.Mapping.XORBankHash = false },
		"tiny rows":       func(c *TopologyConfig) { c.Mapping.RowBits = 1; c.Mapping.XORBankHash = false },
		"low TRH":         func(c *TopologyConfig) { c.TRH = 1 },
		"nil scheme":      func(c *TopologyConfig) { c.Scheme.New = nil },
		"budget count":    func(c *TopologyConfig) { c.RFMBudgets = []int{1, 2, 3} },
		"negative budget": func(c *TopologyConfig) { c.RFMBudgets = []int{-1} },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewTopology(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReplayWorkerInvariance(t *testing.T) {
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	var ref ReplayResult
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = res
			if res.Records != n {
				t.Fatalf("replayed %d records, want %d", res.Records, n)
			}
			var acts uint64
			for _, s := range res.Shards {
				acts += s.ACTs
			}
			if acts != n {
				t.Fatalf("shards account for %d ACTs, want %d", acts, n)
			}
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}

func TestReplayGeneratorVsTraceBitIdentity(t *testing.T) {
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000

	// Path A: the generator drives the replay directly.
	direct, err := top.Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}

	// Path B: the same generator's records are written to a binary trace,
	// read back through the streaming decoder, and replayed.
	records, err := trace.Drain(serverSource(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, serverMapping(), records); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := top.Replay(rd)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(direct, replayed) {
		t.Fatal("generator-driven replay differs from replaying the trace it emitted")
	}
}

func TestReplayCheckpointResume(t *testing.T) {
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	fresh, err := top.Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "replay.ckpt")
	cp := trialrunner.Checkpoint{Path: path}
	first, err := top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{Workers: 4, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{Workers: 2, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(resumed, fresh) {
		t.Fatal("checkpointed/resumed replay differs from a fresh serial replay")
	}
}

// shardStarts counts the shards a replay starts.
type shardStarts struct{ n atomic.Int64 }

func (c *shardStarts) TrialStart(int)              { c.n.Add(1) }
func (c *shardStarts) TrialEnd(int, time.Duration) {}

// TestReplayRejectsUnexpectedKey hands ReplayCampaign the key of a stream
// other than the one it reads, as when a trace file is rewritten after it
// was fingerprinted: the call must fail naming both keys before any shard
// runs or any checkpoint is written. The stream's own key replays normally.
func TestReplayRejectsUnexpectedKey(t *testing.T) {
	cfg := serverConfig(t)
	top := mustTopology(t, cfg)
	const n = 20000
	want, err := top.Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}
	own := ReplayCampaignKey(cfg, want.Records, want.CRC32)
	stale := ReplayCampaignKey(cfg, want.Records, want.CRC32^1)

	path := filepath.Join(t.TempDir(), "replay.ckpt")
	var starts shardStarts
	_, err = top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{
		Workers:    2,
		Checkpoint: trialrunner.Checkpoint{Path: path, Key: stale},
		Observer:   &starts,
	})
	if !errors.Is(err, ErrStreamChanged) || !strings.Contains(err.Error(), stale) || !strings.Contains(err.Error(), own) {
		t.Fatalf("replay under a stale key: err = %v, want ErrStreamChanged naming %q and %q", err, stale, own)
	}
	if got := starts.n.Load(); got != 0 {
		t.Fatalf("%d shards ran before the key mismatch was reported", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a checkpoint was written for the mismatched stream: %v", err)
	}

	got, err := top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{
		Workers:    2,
		Checkpoint: trialrunner.Checkpoint{Path: path, Key: own},
		Observer:   &starts,
	})
	if err != nil {
		t.Fatalf("replay under its own key: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replay under its own expected key differs from a plain replay")
	}
	if got := starts.n.Load(); got != int64(top.Shards()) {
		t.Fatalf("%d shards ran, want %d", got, top.Shards())
	}
}

// TestReplayRejectsEventEngine: a replay has no stochastic engine to
// select, so engine.Event is an error before the source is read, not a
// silently ignored option.
func TestReplayRejectsEventEngine(t *testing.T) {
	top := mustTopology(t, serverConfig(t))
	src := serverSource(1000)
	_, err := top.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 1, Engine: engine.Event})
	if err == nil || !strings.Contains(err.Error(), "exact engine") {
		t.Fatalf("replay on the event engine: err = %v, want a rejection", err)
	}
	if got, err := top.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 1}); err != nil || got.Records != 1000 {
		t.Fatalf("the rejected replay consumed its source: %d records, err %v", got.Records, err)
	}
}

func TestReplayRejectsMappingMismatch(t *testing.T) {
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	other := serverMapping()
	other.ChannelBits = 0
	src := trace.NewSliceSource(other, nil)
	if _, err := top.Replay(src); err == nil {
		t.Fatal("replay accepted a trace recorded under a different mapping")
	}
}

func TestReplayPerChannelRFMBudgets(t *testing.T) {
	cfg := serverConfig(t)
	// Channel 0 gets no RFM budget, channel 1 a tight one: RFM commands
	// must appear only on channel 1's shards.
	cfg.RFMBudgets = []int{0, 32}
	top, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := top.Replay(serverSource(60000))
	if err != nil {
		t.Fatal(err)
	}
	perCh := res.PerChannel()
	if len(perCh) != 2 {
		t.Fatalf("%d channel summaries", len(perCh))
	}
	if perCh[0].RFMs != 0 {
		t.Fatalf("channel 0 issued %d RFMs with a zero budget", perCh[0].RFMs)
	}
	if perCh[1].RFMs == 0 {
		t.Fatal("channel 1 issued no RFMs with a 32-ACT budget")
	}
	// The uniform single-budget form applies everywhere.
	cfg.RFMBudgets = []int{32}
	top2, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := top2.Replay(serverSource(60000))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res2.PerChannel() {
		if c.RFMs == 0 {
			t.Fatalf("channel %d issued no RFMs under the uniform budget", c.Channel)
		}
	}
}

// nullTracker never mitigates: the undefended bank the scrambler tests need
// deterministic flips from.
type nullTracker struct{}

func (nullTracker) Name() string                           { return "null" }
func (nullTracker) OnActivate(int)                         {}
func (nullTracker) OnMitigate() (tracker.Mitigation, bool) { return tracker.Mitigation{}, false }
func (nullTracker) Occupancy() int                         { return 0 }
func (nullTracker) StorageBits() int                       { return 0 }
func (nullTracker) Reset()                                 {}

func nullScheme() sim.Scheme {
	return sim.Scheme{
		Name: "null",
		New: func(dram.Params, *rng.Stream) tracker.Tracker {
			return nullTracker{}
		},
	}
}

// TestReplayScrambledVictimAccounting is the Section II-D geometry argument
// on the replay path: with a RowScrambler standing in for the vendor remap,
// externally adjacent aggressors land on unrelated internal rows (no flip),
// an attacker who knows the internal geometry still flips the victim, and
// the reported flip comes back in EXTERNAL row addresses.
func TestReplayScrambledVictimAccounting(t *testing.T) {
	m := addrmap.Mapping{ColumnBits: 2, BankBits: 0, RowBits: 12, RankBits: 0, ChannelBits: 0}
	cfg := TopologyConfig{
		Params:       dram.DDR5(),
		Mapping:      m,
		Scheme:       nullScheme(),
		TRH:          200,
		Seed:         1,
		ScrambleSeed: 777,
	}
	top, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled := m.MustCompile()
	// 3·TRH/4 hammers per side: the double-sided victim accrues 1.5·TRH
	// disturbances (flips), while any single-sided neighbour of one
	// aggressor stays at 0.75·TRH (no flip) — so a flip can only come from
	// true internal adjacency, never from one hot aggressor alone.
	hammer := func(rows ...int) []uint64 {
		var addrs []uint64
		for i := 0; i < 3*cfg.TRH/4; i++ {
			for _, r := range rows {
				addrs = append(addrs, compiled.Encode(addrmap.Coord{Row: r}))
			}
		}
		return addrs
	}

	// The scrambler the shard will build (shard 0 under ScrambleSeed 777).
	scr := addrmap.NewRowScrambler(1<<12, rng.DeriveSeed(777, 0))

	// Externally adjacent aggressors around external row 2000: internally
	// unrelated, so the double-sided hammer decays into two single-sided
	// hammers of random rows — no flip at 3×TRH activations per side.
	blind, err := top.Replay(trace.NewSliceSource(m, hammer(1999, 2001)))
	if err != nil {
		t.Fatal(err)
	}
	if n := blind.TotalFlips(); n != 0 {
		t.Fatalf("externally adjacent aggressors flipped %d rows through the scrambler", n)
	}

	// An attacker who knows the internal geometry targets internal victim
	// 2000 by hammering the EXTERNAL addresses of its internal neighbours.
	victimInternal := 2000
	informed, err := top.Replay(trace.NewSliceSource(m, hammer(
		scr.Unscramble(victimInternal-1), scr.Unscramble(victimInternal+1))))
	if err != nil {
		t.Fatal(err)
	}
	if n := informed.TotalFlips(); n == 0 {
		t.Fatal("internally adjacent aggressors did not flip the victim")
	}
	// Victim accounting reports the external address of the internal victim.
	want := scr.Unscramble(victimInternal)
	found := false
	for _, f := range informed.Shards[0].Flips {
		if f.Row == want {
			found = true
		}
		if f.Row == victimInternal && want != victimInternal {
			t.Fatalf("flip reported in internal address space (row %d)", f.Row)
		}
	}
	if !found {
		t.Fatalf("flips %v do not include the external victim %d", informed.Shards[0].Flips, want)
	}

	// The same trace without scrambling flips the victim directly: the
	// scrambler is the only thing separating the two runs.
	cfg.ScrambleSeed = 0
	plain, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := plain.Replay(trace.NewSliceSource(m, hammer(1999, 2001)))
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalFlips() == 0 {
		t.Fatal("unscrambled double-sided hammer did not flip")
	}
}

func TestReplayCampaignKeyIgnoresWorkers(t *testing.T) {
	cfg := serverConfig(t)
	key := ReplayCampaignKey(cfg, 1000, 0xDEADBEEF)
	if key == "" {
		t.Fatal("empty key")
	}
	// The key pins scheme, mapping, budgets, scramble, seed, and the trace
	// fingerprint — and changes when any of them change.
	variants := []TopologyConfig{}
	v := cfg
	v.TRH = 600
	variants = append(variants, v)
	v = cfg
	v.Seed = 43
	variants = append(variants, v)
	v = cfg
	v.ScrambleSeed = 9
	variants = append(variants, v)
	v = cfg
	v.RFMBudgets = []int{0, 32}
	variants = append(variants, v)
	for i, vc := range variants {
		if ReplayCampaignKey(vc, 1000, 0xDEADBEEF) == key {
			t.Errorf("variant %d: key unchanged", i)
		}
	}
	if ReplayCampaignKey(cfg, 1001, 0xDEADBEEF) == key || ReplayCampaignKey(cfg, 1000, 0xDEADBEEE) == key {
		t.Error("key ignores the trace fingerprint")
	}
}

func TestReplayFingerprintMatchesDemux(t *testing.T) {
	// The submit-time fingerprint and the demux's must agree on the
	// records, whether they come from a generator or a binary trace, at a
	// length that leaves a partial last batch.
	const n = 3*demuxBatch + 17
	top, err := NewTopology(serverConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := top.Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := trace.Drain(serverSource(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, serverMapping(), addrs); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]trace.Source{"generator": serverSource(n), "binary trace": tr} {
		records, crc, err := ReplayFingerprint(src)
		if err != nil {
			t.Fatal(err)
		}
		if records != res.Records || crc != res.CRC32 {
			t.Errorf("%s: fingerprint (%d, %08x), demux (%d, %08x)", name, records, crc, res.Records, res.CRC32)
		}
	}
}

// TestReplayRetriedShardsMatchClean injects a panic into the first attempt
// of a few shards: with a retry budget of two attempts each shard re-runs
// on its worker's reused bank, and the replay must equal the clean one at
// one and at two workers.
func TestReplayRetriedShardsMatchClean(t *testing.T) {
	top := mustTopology(t, serverConfig(t))
	const n = 40000
	clean, err := top.Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		inj := faultinject.New(5)
		// Every third shard index (2 and 5 of 8) fails its first attempt.
		inj.Arm(faultinject.SiteTrialPanic, faultinject.Trigger{Every: 3, Kind: faultinject.KindPanic})
		camp := obs.NewCampaign("replay-retry", top.Shards(), workers)
		res, err := top.ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{
			Workers: workers, Observer: camp, Faults: inj, Retry: trialrunner.RetryPolicy{Attempts: 2},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := camp.Snapshot().TrialRetries; got != 2 {
			t.Fatalf("workers=%d: %d shard retries, want 2", workers, got)
		}
		if !reflect.DeepEqual(res, clean) {
			t.Fatalf("workers=%d: retried replay differs from the clean replay", workers)
		}
	}
}

// flakyTracker panics at its at-th activation the first time a shard's
// row stream reaches that point, after the bank has taken the shard's
// first at activations; a retried attempt of the same shard runs through.
// A shard is recognised by a hash of its first at rows.
type flakyTracker struct {
	tracker.Tracker
	at, acts int
	hash     uint64
	seen     *sync.Map
	panics   *atomic.Int64
}

func (f *flakyTracker) OnActivate(row int) {
	f.Tracker.OnActivate(row)
	f.acts++
	f.hash = f.hash*1099511628211 + uint64(row)
	if f.acts == f.at {
		if _, dup := f.seen.LoadOrStore(f.hash, true); !dup {
			f.panics.Add(1)
			panic("flaky tracker: first attempt of this shard")
		}
	}
}

// TestReplayMidShardPanicRetriesOnCleanBank fails every shard's first
// attempt partway through its rows, so the retry starts on the bank the
// failed attempt left dirty. Resetting the bank at shard start must make
// the replay equal the clean one at one and at two workers.
func TestReplayMidShardPanicRetriesOnCleanBank(t *testing.T) {
	const n, at = 40000, 1000
	cfg := serverConfig(t)
	clean, err := mustTopology(t, cfg).Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var (
			seen   sync.Map
			panics atomic.Int64
		)
		flaky := cfg
		inner := cfg.Scheme.New
		flaky.Scheme.New = func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return &flakyTracker{Tracker: inner(p, r), at: at, seen: &seen, panics: &panics}
		}
		res, err := mustTopology(t, flaky).ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{
			Workers: workers, Retry: trialrunner.RetryPolicy{Attempts: 2},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if panics.Load() == 0 {
			t.Fatalf("workers=%d: no shard reached %d activations", workers, at)
		}
		if !reflect.DeepEqual(res, clean) {
			t.Fatalf("workers=%d: replay retried after %d mid-shard panics differs from the clean replay", workers, panics.Load())
		}
	}
}

// TestReplaySelfCheckMatchesClean replays with every bank's runtime
// invariant guards on: a healthy replay trips nothing and its result equals
// the unchecked one.
func TestReplaySelfCheckMatchesClean(t *testing.T) {
	const n = 40000
	cfg := serverConfig(t)
	clean, err := mustTopology(t, cfg).Replay(serverSource(n))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SelfCheck = true
	checked, err := mustTopology(t, cfg).ReplayCampaign(context.Background(), serverSource(n), ReplayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(checked, clean) {
		t.Fatal("SelfCheck changed the replay result")
	}
}

// TestReplayConcurrentOnOneTopology replays traces of different lengths on
// one topology from several goroutines at once, after two replays have left
// it spare queue slabs: replays sharing the topology's slabs must each
// equal the same replay on a fresh topology.
func TestReplayConcurrentOnOneTopology(t *testing.T) {
	cfg := serverConfig(t)
	sizes := []int{50000, 20000, 35000}
	want := make([]ReplayResult, len(sizes))
	for i, n := range sizes {
		res, err := mustTopology(t, cfg).Replay(serverSource(n))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	top := mustTopology(t, cfg)
	for i := 0; i < 2; i++ {
		if _, err := top.Replay(serverSource(sizes[0])); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < len(sizes); r++ {
				i := (g + r) % len(sizes)
				res, err := top.ReplayCampaign(context.Background(), serverSource(sizes[i]), ReplayOptions{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("goroutine %d: replay of %d records differs from the same replay on a fresh topology", g, sizes[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPutSlabsDropsReplayReferences checks that a finished replay's arena
// and shard queues hold no slab, whether the topology keeps the slabs (from
// its second replay on) or lets them go: a stale stack word still pointing
// at one of them must not keep a whole replay's rows alive.
func TestPutSlabsDropsReplayReferences(t *testing.T) {
	top := mustTopology(t, serverConfig(t))
	for replay := 1; replay <= 2; replay++ {
		arena := top.takeSlabs()
		queues, _, _, err := top.demux(serverSource(50000), nil, arena)
		if err != nil {
			t.Fatal(err)
		}
		blocks := queues[0].blocks
		if len(blocks) == 0 {
			t.Fatal("shard 0 got no rows")
		}
		top.putSlabs(arena)
		for i, b := range blocks {
			if b != nil {
				t.Errorf("replay %d: shard 0's block %d still references a slab", replay, i)
			}
		}
		for i, q := range queues {
			if q.blocks != nil || q.tail != nil {
				t.Errorf("replay %d: shard %d's queue still references its blocks", replay, i)
			}
		}
		if arena.free != nil || arena.spare != nil || arena.used != nil || arena.queues != nil {
			t.Errorf("replay %d: the arena still references slabs or queues after putSlabs", replay)
		}
	}
	if len(top.spare) == 0 {
		t.Error("the topology kept no slabs after its second replay")
	}
}

func mustTopology(t *testing.T, cfg TopologyConfig) *Topology {
	t.Helper()
	top, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// replayAllocs returns the bytes one serial replay of src allocates.
func replayAllocs(t *testing.T, top *Topology, src trace.Source) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := top.ReplayCampaign(context.Background(), src, ReplayOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayAllocGate pins the replay data path's allocations at one
// worker. Shard queues are block chains, so replaying 3N more records costs
// their 4 bytes each, plus one slab and one partly used block per shard —
// never a copy of a growing queue. A topology keeps its slabs from its
// second replay on, and a third replay carves them again. Bank row arrays
// are scratch of the worker, so a many-shard replay allocates them once,
// not once per shard.
func TestReplayAllocGate(t *testing.T) {
	const n = 1 << 18
	cfg := serverConfig(t)
	records, err := trace.Drain(serverSource(4*n), nil)
	if err != nil {
		t.Fatal(err)
	}
	small := replayAllocs(t, mustTopology(t, cfg), trace.NewSliceSource(cfg.Mapping, records[:n]))
	top := mustTopology(t, cfg)
	large := replayAllocs(t, top, trace.NewSliceSource(cfg.Mapping, records))
	limit := uint64(4*3*n + 4*queueSlabRows + 4*queueBlockRows*top.Shards())
	if large > small && large-small > limit {
		t.Errorf("replaying %d records allocates %d B more than %d records, want <= %d (4 B per added record + one slab + one block per shard)",
			4*n, large-small, n, limit)
	}
	if len(top.spare) != 0 {
		t.Errorf("the topology kept %d slabs after its first replay, want none", len(top.spare))
	}
	replayAllocs(t, top, trace.NewSliceSource(cfg.Mapping, records))
	again := replayAllocs(t, top, trace.NewSliceSource(cfg.Mapping, records))
	if again+4*4*n > large {
		t.Errorf("a third replay of %d records on the same topology allocates %d B, want <= %d (the first replay's %d B less their 4 B per record of queue rows)",
			4*n, again, large-4*4*n, large)
	}

	// 32 shards of 16K rows each: a fresh bank per shard would allocate
	// 32 banks' row arrays.
	many := cfg
	many.Mapping = addrmap.Mapping{ColumnBits: 0, BankBits: 5, RowBits: 14, XORBankHash: true}
	top = mustTopology(t, many)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = dram.MustNewBank(top.Params(), many.TRH)
	runtime.ReadMemStats(&after)
	bank := after.TotalAlloc - before.TotalAlloc
	// Every shard gets 64 rows, so every shard runs on a bank.
	var addrs []uint64
	comp := many.Mapping.MustCompile()
	for i := 0; i < 64*top.Shards(); i++ {
		addrs = append(addrs, comp.Encode(addrmap.Coord{Bank: i % top.Shards(), Row: i % 4096}))
	}
	got := replayAllocs(t, top, trace.NewSliceSource(many.Mapping, addrs))
	// One bank plus the queue slab, with 8 KB of per-shard tracker and
	// controller state to spare; a bank per shard would add 31 banks.
	limit = bank + 4*queueSlabRows + 8<<10*uint64(top.Shards())
	if got > limit {
		t.Errorf("%d-shard replay at 1 worker allocates %d B, want <= %d (one %d B bank, not one per shard)",
			top.Shards(), got, limit, bank)
	}
}
