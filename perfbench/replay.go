package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trace"
	"pride/internal/workload"
)

// replayScale sizes the replay-trace workload.
type replayScale struct {
	records int // trace length in ACT records
	setups  int // trace set-ups per run; setup_s is their median
}

// replayDefault keeps one replay near half a second on a 2-vCPU host,
// long enough that scheduling noise averages out within each replay and
// short enough for dozens of replays per run.
var replayDefault = replayScale{records: 8 << 20, setups: 5}

// replayMapping is a 4-channel, 2-rank, 16-bank server (128 shards) with
// 16K rows per bank and the XOR bank hash.
var replayMapping = addrmap.Mapping{ColumnBits: 6, BankBits: 4, RowBits: 14, RankBits: 1, ChannelBits: 2, XORBankHash: true}

// replayTRH is low enough that the hammering tenant flips bits under PrIDE,
// so the flip check compares real content.
const replayTRH = 500

// hammerShare is the share of trace bursts issued by the hammering tenant;
// it makes the hammered shards several times longer than the rest.
const hammerShare = 1.0 / 8

// burstLen is how many consecutive records one tenant issues per turn.
const burstLen = 32

// replayDigest pins the full replay result of the default seed's trace at
// replayDefault scale: records, CRC-32C, every shard's counters and flips.
const replayDigest = "231556abfd560dab"

// traceExpect is what every correct replay of a generated trace must
// report, computed on the generator side independently of the replay path.
type traceExpect struct {
	records    uint64
	crc        uint32
	perChannel []uint64 // ACTs per channel
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tenantMix is the seeded traffic of one trace: the memory-intensive
// SPEC-like tenants of internal/workload, weighted by their MPKI, plus one
// double-sided hammering tenant confined to a few banks.
type tenantMix struct {
	pick    *rng.Stream
	benign  []*workload.AddrSource
	weights []float64 // cumulative MPKI weights of the benign tenants
	comp    addrmap.Compiled
	targets []addrmap.Coord // hammered banks, Row = victim row
	pos     int
}

func newTenantMix(seed uint64, records int) *tenantMix {
	comp := replayMapping.MustCompile()
	var intensive []workload.Spec
	for _, s := range workload.SPEC2017() {
		if s.MPKI >= 5 {
			intensive = append(intensive, s)
		}
	}
	// Every seed uses the same tenants in the same proportions, so the
	// seed moves addresses but not the amount or kind of work.
	r := rng.Derived(seed, 0)
	t := &tenantMix{pick: rng.Derived(seed, 1), comp: comp}
	total := 0.0
	for i, spec := range intensive {
		t.benign = append(t.benign, workload.NewAddrSource(spec, replayMapping, records, rng.DeriveSeed(seed, uint64(10+i))))
		total += spec.MPKI
		t.weights = append(t.weights, total)
	}
	for i := range t.weights {
		t.weights[i] /= total
	}
	for i := 0; i < 4; i++ {
		t.targets = append(t.targets, addrmap.Coord{
			Channel: r.Intn(comp.Channels()),
			Rank:    r.Intn(comp.Ranks()),
			Bank:    r.Intn(comp.Banks()),
			Row:     1 + r.Intn(comp.Rows()-2),
		})
	}
	return t
}

// fill writes len(dst) records, one tenant burst at a time.
func (t *tenantMix) fill(dst []uint64) {
	for len(dst) > 0 {
		n := burstLen
		if n > len(dst) {
			n = len(dst)
		}
		u := t.pick.Float64()
		if u < hammerShare {
			for i := 0; i < n; i++ {
				// Consecutive pairs hit one bank's two aggressors.
				c := t.targets[(t.pos/2)%len(t.targets)]
				c.Row += 2*(t.pos&1) - 1
				dst[i] = t.comp.Encode(c)
				t.pos++
			}
		} else {
			u = (u - hammerShare) / (1 - hammerShare)
			k := 0
			for k < len(t.weights)-1 && u >= t.weights[k] {
				k++
			}
			if got, err := t.benign[k].ReadBatch(dst[:n]); err != nil || got != n {
				panic(fmt.Sprintf("tenant %d short read: %d of %d (%v)", k, got, n, err))
			}
		}
		dst = dst[n:]
	}
}

// setupTimes splits one trace set-up.
type setupTimes struct {
	cpu  time.Duration // CPU time of generation plus write, excluding the bench's own checksums
	wall time.Duration // the same in wall time
	gen  time.Duration // wall time inside the workload generators
}

// writeTrace generates the seeded trace into path and returns the
// expectations for it. The file is synced before returning, outside the
// timed part, so kernel writeback never lands in a timed replay.
func writeTrace(path string, seed uint64, records int) (traceExpect, setupTimes, error) {
	exp := traceExpect{records: uint64(records), perChannel: make([]uint64, replayMapping.MustCompile().Channels())}
	var st setupTimes
	var check, checkCPU time.Duration
	start, startCPU := time.Now(), selfCPU()
	f, err := os.Create(path)
	if err != nil {
		return exp, st, err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, replayMapping, uint64(records))
	if err != nil {
		return exp, st, err
	}
	mix := newTenantMix(seed, records)
	comp := replayMapping.MustCompile()
	buf := make([]uint64, 1<<16)
	le := make([]byte, len(buf)*8)
	for left := records; left > 0; {
		chunk := buf
		if left < len(chunk) {
			chunk = chunk[:left]
		}
		g0 := time.Now()
		mix.fill(chunk)
		c0, cc0 := time.Now(), selfCPU()
		st.gen += c0.Sub(g0)
		for i, a := range chunk {
			binary.LittleEndian.PutUint64(le[i*8:], a)
			ch, _, _, _ := comp.Route(a)
			exp.perChannel[ch]++
		}
		exp.crc = crc32.Update(exp.crc, castagnoli, le[:len(chunk)*8])
		check += time.Since(c0)
		checkCPU += selfCPU() - cc0
		if err := tw.WriteBatch(chunk); err != nil {
			return exp, st, err
		}
		left -= len(chunk)
	}
	if err := tw.Close(); err != nil {
		return exp, st, err
	}
	st.wall = time.Since(start) - check
	st.cpu = selfCPU() - startCPU - checkCPU
	if err := f.Sync(); err != nil {
		return exp, st, err
	}
	return exp, st, f.Close()
}

// timedSource measures the time spent inside the trace decoder's ReadBatch.
type timedSource struct {
	trace.Source
	first, last time.Time
	busy        time.Duration
	calls       int64
}

func (s *timedSource) ReadBatch(dst []uint64) (int, error) {
	t0 := time.Now()
	n, err := s.Source.ReadBatch(dst)
	t1 := time.Now()
	if s.calls == 0 {
		s.first = t0
	}
	s.last = t1
	s.busy += t1.Sub(t0)
	s.calls++
	return n, err
}

// shardObserver records one span per shard and the shard phase's start.
type shardObserver struct {
	tr     *tracer
	parent int64
	job    string
	mu     sync.Mutex
	first  time.Time
	starts []time.Time
	busy   time.Duration
	max    time.Duration
}

func (o *shardObserver) TrialStart(i int) {
	now := time.Now()
	o.mu.Lock()
	if o.first.IsZero() {
		o.first = now
	}
	o.starts[i] = now
	o.mu.Unlock()
}

func (o *shardObserver) TrialEnd(i int, d time.Duration) {
	now := time.Now()
	o.mu.Lock()
	o.busy += d
	if d > o.max {
		o.max = d
	}
	start := o.starts[i]
	o.mu.Unlock()
	o.tr.record(0, "system.shard", o.parent, o.job, i, start, now)
}

// replayLayers is one traced replay's split.
type replayLayers struct {
	wall, decode, demux, shardPhase, shardBusy, shardMax time.Duration
}

// replayOnce replays the trace file once. With tr non-nil it also times the
// decoder and the shards and records the replay's spans.
func replayOnce(ctx context.Context, topo *system.Topology, path string, workers int, tr *tracer, job string) (system.ReplayResult, replayLayers, error) {
	var ly replayLayers
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return system.ReplayResult{}, ly, err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return system.ReplayResult{}, ly, err
	}
	if tr == nil {
		res, err := topo.ReplayCampaign(ctx, rd, system.ReplayOptions{Workers: workers})
		ly.wall = time.Since(start)
		return res, ly, err
	}
	root := tr.newID()
	src := &timedSource{Source: rd}
	obs := &shardObserver{tr: tr, parent: root, job: job, starts: make([]time.Time, topo.Shards())}
	entry := time.Now()
	res, err := topo.ReplayCampaign(ctx, src, system.ReplayOptions{Workers: workers, Observer: obs})
	end := time.Now()
	ly.wall = end.Sub(start)
	if err != nil {
		return res, ly, err
	}
	ly.decode = src.busy
	ly.demux = obs.first.Sub(entry) - src.busy
	ly.shardPhase = end.Sub(obs.first)
	ly.shardBusy, ly.shardMax = obs.busy, obs.max
	tr.record(root, "replay", 0, job, -1, start, end)
	tr.record(0, "system.demux", root, job, -1, entry, obs.first)
	tr.add(span{Parent: root, Name: "trace.decode", Job: job, Shard: -1, Start: tr.ns(src.first), End: tr.ns(src.last),
		Busy: src.busy.Nanoseconds(), Calls: src.calls})
	tr.record(0, "system.shard_phase", root, job, -1, obs.first, end)
	return res, ly, nil
}

// digestOf fingerprints a result by the SHA-256 of its JSON encoding.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkReplay compares a replay against the generator's expectations and,
// when given, a reference replay of the same trace.
func checkReplay(res system.ReplayResult, exp traceExpect, ref *system.ReplayResult) error {
	if res.Records != exp.records || res.CRC32 != exp.crc {
		return fmt.Errorf("replay: records=%d crc=%08x, trace has records=%d crc=%08x", res.Records, res.CRC32, exp.records, exp.crc)
	}
	for _, c := range res.PerChannel() {
		if c.ACTs != exp.perChannel[c.Channel] {
			return fmt.Errorf("replay: channel %d replayed %d ACTs, trace has %d", c.Channel, c.ACTs, exp.perChannel[c.Channel])
		}
	}
	if ref != nil && !reflect.DeepEqual(res, *ref) {
		return fmt.Errorf("replay: result differs from the reference replay (digest %s vs %s)", digestOf(res), digestOf(*ref))
	}
	return nil
}

func newReplayTopology(seed uint64) (*system.Topology, error) {
	return system.NewTopology(system.TopologyConfig{
		Params:  dram.DDR5(),
		Mapping: replayMapping,
		Scheme:  sim.PrIDEScheme(),
		TRH:     replayTRH,
		Seed:    seed,
	})
}

func runReplay(ctx context.Context, cfg config, runDir string) (*outcome, error) {
	return replayWorkload(ctx, cfg, runDir, replayDefault)
}

func replayWorkload(ctx context.Context, cfg config, runDir string, sc replayScale) (*outcome, error) {
	out := newOutcome()
	workers := runtime.NumCPU()
	path := filepath.Join(runDir, "replay.trace")

	// Set-up: generate and write the trace several times; the last file is
	// the one replayed.
	var setups, setupWalls, gens []float64
	var exp traceExpect
	for i := 0; i < sc.setups; i++ {
		e, st, err := writeTrace(path, cfg.seed, sc.records)
		if err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		exp = e
		setups = append(setups, st.cpu.Seconds())
		setupWalls = append(setupWalls, st.wall.Seconds())
		gens = append(gens, st.gen.Seconds())
	}
	topo, err := newReplayTopology(cfg.seed)
	if err != nil {
		return nil, err
	}

	// Untimed warm-up replay: the reference every later replay must equal.
	ref, _, err := replayOnce(ctx, topo, path, workers, nil, "")
	if err != nil {
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	digest := digestOf(ref)
	err = checkReplay(ref, exp, nil)
	if err == nil && cfg.seed == defaultSeed && sc == replayDefault && digest != replayDigest {
		err = fmt.Errorf("replay: seed %d digest %s, want %s", cfg.seed, digest, replayDigest)
	}
	out.record(cfg.log, err)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var walls, cpus, tracedWalls []float64
	var layers []replayLayers
	minOps := 1
	if cfg.traced {
		minOps = 2
	}
	rt0 := readRuntime()
	start, startCPU := time.Now(), selfCPU()
	for i := 0; i < minOps || time.Since(start) < cfg.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The traced run alternates traced and untraced replays so the
		// tracing overhead is measured under the same conditions.
		var t *tracer
		if cfg.traced && i%2 == 0 {
			t = tr
		}
		c0 := selfCPU()
		res, ly, err := replayOnce(ctx, topo, path, workers, t, fmt.Sprintf("replay-%d", i))
		opCPU := selfCPU() - c0
		if err == nil {
			err = checkReplay(res, exp, &ref)
		}
		out.record(cfg.log, err)
		if err != nil {
			continue
		}
		if t != nil {
			tracedWalls = append(tracedWalls, ly.wall.Seconds())
			layers = append(layers, ly)
		} else {
			walls = append(walls, ly.wall.Seconds())
			cpus = append(cpus, opCPU.Seconds())
		}
	}
	elapsed, phaseCPU := time.Since(start), selfCPU()-startCPU
	rt1 := readRuntime()
	ops := len(walls) + len(tracedWalls)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	p50 := median(walls)
	out.detail.set("acts_per_s", float64(exp.records)/p50, "ACT/s")
	out.detail.set("replay_p50_ms", p50*1e3, "ms")
	out.detail.set("replays_per_s", float64(ops)/elapsed.Seconds(), "op/s")
	out.detail.set("setup_wall_s", median(setupWalls), "s")
	out.info["records"] = exp.records
	out.info["shards"] = topo.Shards()
	out.info["workers"] = workers
	out.info["replays"] = ops
	out.info["digest"] = digest
	out.info["flips"] = ref.TotalFlips()
	out.info["op_quartiles_ms"] = quartilesMS(walls)
	out.info["op_cpu_quartiles_ms"] = quartilesMS(cpus)
	if t, ok := tail(walls); ok {
		out.detail.set(fmt.Sprintf("replay_p%d_ms", t.Percentile), t.Value*1e3, "ms")
		out.info["tail"] = t
	}

	if !cfg.traced {
		out.result.setEndToEnd(cpus, ops, phaseCPU, setups, rss)
		return out, nil
	}

	// The traced run also checks worker-count invariance against a serial
	// replay.
	serial, _, err := replayOnce(ctx, topo, path, 1, nil, "")
	if err == nil {
		err = checkReplay(serial, exp, &ref)
	}
	if err != nil {
		err = fmt.Errorf("1-worker replay: %w", err)
	}
	out.record(cfg.log, err)

	pick := func(f func(replayLayers) time.Duration) float64 {
		xs := make([]float64, len(layers))
		for i, l := range layers {
			xs[i] = f(l).Seconds()
		}
		return median(xs)
	}
	decode := pick(func(l replayLayers) time.Duration { return l.decode })
	demux := pick(func(l replayLayers) time.Duration { return l.demux })
	phase := pick(func(l replayLayers) time.Duration { return l.shardPhase })
	busy := pick(func(l replayLayers) time.Duration { return l.shardBusy })
	var acts, mits, vrefs uint64
	for _, s := range ref.Shards {
		acts += s.ACTs
		mits += s.Mitigations
		vrefs += s.VictimRefreshes
	}
	d := out.detail
	d.set("trace.decode_s", decode, "s")
	d.set("trace.mb_per_s", float64(exp.records*trace.RecordSize)/decode/1e6, "MB/s")
	d.set("system.demux_s", demux, "s")
	d.set("system.shard_phase_s", phase, "s")
	d.set("system.shard_busy_s", busy, "s")
	d.set("system.shard_max_s", pick(func(l replayLayers) time.Duration { return l.shardMax }), "s")
	d.set("system.ns_per_act", busy*1e9/float64(acts), "ns")
	d.set("system.acts", float64(acts), "count")
	d.set("system.mitigations", float64(mits), "count")
	d.set("system.victim_refreshes", float64(vrefs), "count")
	d.set("system.flips", float64(ref.TotalFlips()), "count")
	d.set("trialrunner.util", busy/(phase*float64(workers)), "ratio")
	d.set("workload.gen_s", median(gens), "s")

	coverage := make([]float64, len(layers))
	for i, l := range layers {
		coverage[i] = (l.decode + l.demux + l.shardPhase).Seconds() / l.wall.Seconds()
	}
	cov := median(coverage)
	out.info["accounting"] = accounting("trace.decode_s + system.demux_s + system.shard_phase_s", "replay wall", coverage, replayBand)
	out.record(cfg.log, bandErr("replay", cov, replayBand))
	overhead := median(tracedWalls)/p50 - 1

	r := out.result
	r.setRuntimePerOp(rt0, rt1, ops)
	r.set("trialrunner.util", busy/(phase*float64(workers)), "ratio")
	r.set("layer.coverage", cov, "ratio")
	r.set("tracing.overhead", overhead, "ratio")
	out.info["spans"] = spanPath(cfg)
	return out, tr.write(spanPath(cfg))
}

// replayBand is the share of each traced replay's wall time that decode,
// demux and the shard phase must cover together. The rest is opening the
// file and reading the header.
var replayBand = [2]float64{0.95, 1.0}

// bandErr reports a layer-accounting median outside its band.
func bandErr(what string, cov float64, band [2]float64) error {
	if cov < band[0] || cov > band[1] {
		return fmt.Errorf("%s layer accounting: layers cover %.4f of the whole, outside [%g, %g]", what, cov, band[0], band[1])
	}
	return nil
}

// accounting summarises a layer-accounting check for the report line.
func accounting(layers, whole string, coverage []float64, band [2]float64) map[string]any {
	s := sortedCopy(coverage)
	return map[string]any{
		"layers":     layers,
		"covers":     whole,
		"median":     median(coverage),
		"min":        s[0],
		"max":        s[len(s)-1],
		"band":       band,
		"samples":    len(coverage),
		"band_holds": median(coverage) >= band[0] && median(coverage) <= band[1],
	}
}
