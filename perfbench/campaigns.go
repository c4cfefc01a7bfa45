package main

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/patterns"
	"pride/internal/sim"
	"pride/internal/system"
)

// campaignScale sizes one round of the paper-campaigns workload.
type campaignScale struct {
	lossPeriods int // Fig 8 Monte-Carlo tREFI periods

	attackPatterns int // Fig 15 suite size
	attackSeeds    int // seeds per pattern
	attackACTs     int // ACTs per trial

	ttfPoints  []int // Table IX device TRH-D sweep
	ttfBanks   int
	ttfTrials  int
	ttfHorizon int // tREFI

	setups int // set-ups per run; setup_s is their median
	// warmDiv shrinks each campaign for the set-up's warm-up pass.
	warmDiv int
}

// campaignDefault gives each campaign several hundred milliseconds per
// round at one worker, so no campaign time is a single short interval. Many
// short attack patterns and many short TTF trials keep the work per round
// nearly the same for every seed: the seed picks the patterns and the
// failure times, and averages over more of them vary less.
var campaignDefault = campaignScale{
	lossPeriods:    6_000_000,
	attackPatterns: 64,
	attackSeeds:    1,
	attackACTs:     25_000,
	ttfPoints:      []int{150, 200, 250, 300, 400, 500},
	ttfBanks:       4,
	ttfTrials:      24,
	ttfHorizon:     5_000,
	setups:         5,
	warmDiv:        2,
}

// campaignDigest pins each campaign's result for the default seed at
// campaignDefault scale.
var campaignDigest = roundDigest{Security: "c29bf6e0d86a5813", Attack: "06ce51b86b3d8abb", TTF: "08698367339af2f5"}

// roundDigest fingerprints one round's three results.
type roundDigest struct {
	Security string `json:"security"`
	Attack   string `json:"attack"`
	TTF      string `json:"ttfsim"`
}

// ttfPoint is one Table IX measurement.
type ttfPoint struct {
	TRHD        int     `json:"trhd"`
	MeanSeconds float64 `json:"mean_seconds"`
	Failed      int     `json:"failed"`
}

// roundResult is what one round computes.
type roundResult struct {
	security montecarlo.LossResult
	attack   []sim.AttackResult
	ttf      []ttfPoint
}

func (r roundResult) digest() roundDigest {
	return roundDigest{Security: digestOf(r.security), Attack: digestOf(r.attack), TTF: digestOf(r.ttf)}
}

// roundTimes is one round's wall times and simulated work.
type roundTimes struct {
	wall, security, attack, ttf time.Duration
	perScheme                   []time.Duration
	attackACTs, trefis          int64
}

// counter counts simulated work reported through the campaigns' progress
// sinks. Mitigations are part of the sink interfaces but not reported.
type counter struct {
	acts, periods atomic.Int64
}

func (c *counter) AddActivations(n int64) { c.acts.Add(n) }
func (c *counter) AddPeriods(n int64)     { c.periods.Add(n) }
func (c *counter) AddMitigations(int64)   {}

// campaignInputs are the configurations every round reuses, built the way
// pride-security -fig 8, pride-attack -fig 15 and pride-ttfsim build them.
type campaignInputs struct {
	loss    montecarlo.LossConfig
	attack  sim.AttackConfig
	suite   []*patterns.Pattern
	schemes []sim.Scheme
	ttf     system.Config
	sc      campaignScale
	seed    uint64
}

func newCampaignInputs(sc campaignScale, seed uint64) campaignInputs {
	p := dram.DDR5()
	w := p.ACTsPerTREFI()
	ap := p
	ap.RowsPerBank, ap.RowBits = 8192, 13
	tp := p
	tp.RowsPerBank, tp.RowBits = 4096, 12
	return campaignInputs{
		loss:    montecarlo.LossConfig{Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: sc.lossPeriods},
		attack:  sim.AttackConfig{Params: ap, ACTs: sc.attackACTs},
		suite:   patterns.Fig15Suite(ap.RowsPerBank, sc.attackPatterns, seed),
		schemes: sim.Fig15Schemes(),
		ttf:     system.Config{Params: tp, Banks: sc.ttfBanks, MaxTREFI: sc.ttfHorizon},
		sc:      sc,
		seed:    seed,
	}
}

// shrink returns the inputs at 1/div of their size, for warm-up.
func (in campaignInputs) shrink(div int) campaignInputs {
	out := in
	out.loss.Periods = max(in.loss.Periods/div, 1)
	out.attack.ACTs = max(in.attack.ACTs/div, 1)
	out.suite = in.suite[:max(len(in.suite)/div, 1)]
	out.ttf.MaxTREFI = max(in.ttf.MaxTREFI/div, 1)
	out.sc.ttfTrials = max(in.sc.ttfTrials/div, 1)
	return out
}

// runRound runs the three campaigns once through their public campaign
// functions, at one worker on the event engine. With tr non-nil it records
// a span per campaign call and counts the simulated work.
func runRound(ctx context.Context, in campaignInputs, tr *tracer, job string) (roundResult, roundTimes, error) {
	var res roundResult
	var tm roundTimes
	var cnt counter
	root := tr.newID()
	start := time.Now()

	t0 := time.Now()
	mo := montecarlo.CampaignOptions{Workers: 1, Engine: engine.Event}
	if tr != nil {
		mo.Progress = &cnt
	}
	loss, err := montecarlo.SimulateLossCampaign(ctx, in.loss, in.seed, mo)
	if err != nil {
		return res, tm, fmt.Errorf("security campaign: %w", err)
	}
	res.security = loss
	t1 := time.Now()
	tm.security = t1.Sub(t0)
	tr.record(0, "montecarlo.loss", root, job, -1, t0, t1)

	attackID := tr.newID()
	for _, s := range in.schemes {
		s0 := time.Now()
		so := sim.CampaignOptions{Workers: 1, Engine: engine.Event}
		if tr != nil {
			so.Progress = &cnt
		}
		// Per-scheme seeds follow pride-attack -fig 15.
		r, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, in.attack, s, in.suite, in.sc.attackSeeds, in.seed+uint64(len(s.Name)), so)
		if err != nil {
			return res, tm, fmt.Errorf("attack campaign %s: %w", s.Name, err)
		}
		res.attack = append(res.attack, r)
		s1 := time.Now()
		tm.perScheme = append(tm.perScheme, s1.Sub(s0))
		tr.record(0, "sim.attack."+metricSlug(s.Name), attackID, job, -1, s0, s1)
	}
	t2 := time.Now()
	tm.attack = t2.Sub(t1)
	tr.record(attackID, "sim.attack", root, job, -1, t1, t2)

	ttfID := tr.newID()
	for _, d := range in.sc.ttfPoints {
		p0 := time.Now()
		cfg := in.ttf
		cfg.TRH = 2 * d // the shared victim absorbs both aggressors' hammers
		to := system.CampaignOptions{Workers: 1, Engine: engine.Event}
		if tr != nil {
			to.Progress = &cnt
		}
		// Per-point seeds follow pride-ttfsim.
		mean, failed, err := system.MeasureMTTFCampaign(ctx, cfg, sim.PrIDEScheme(), in.sc.ttfTrials, in.seed+uint64(d), to)
		if err != nil {
			return res, tm, fmt.Errorf("ttfsim campaign at TRH-D %d: %w", d, err)
		}
		res.ttf = append(res.ttf, ttfPoint{TRHD: d, MeanSeconds: mean, Failed: failed})
		tr.record(0, "system.mttf_point", ttfID, job, -1, p0, time.Now())
	}
	end := time.Now()
	tm.ttf = end.Sub(t2)
	tm.wall = end.Sub(start)
	tr.record(ttfID, "system.mttf", root, job, -1, t2, end)
	tr.record(root, "round", 0, job, -1, start, end)
	tm.attackACTs, tm.trefis = cnt.acts.Load(), cnt.periods.Load()
	return res, tm, nil
}

func runCampaigns(ctx context.Context, cfg config, runDir string) (*outcome, error) {
	return campaignWorkload(ctx, cfg, campaignDefault)
}

func campaignWorkload(ctx context.Context, cfg config, sc campaignScale) (*outcome, error) {
	out := newOutcome()

	// Set-up: build the inputs and warm each campaign at reduced size.
	var setups, setupWalls []float64
	var in campaignInputs
	for i := 0; i < sc.setups; i++ {
		s0, c0 := time.Now(), selfCPU()
		in = newCampaignInputs(sc, cfg.seed)
		if _, _, err := runRound(ctx, in.shrink(sc.warmDiv), nil, ""); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (selfCPU() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(s0).Seconds())
	}

	// Untimed reference round.
	ref, _, err := runRound(ctx, in, nil, "")
	if err != nil {
		return nil, err
	}
	want := ref.digest()
	pinned := want
	if cfg.seed == defaultSeed && reflect.DeepEqual(sc, campaignDefault) {
		pinned = campaignDigest
	}
	for _, e := range digestErrors(want, pinned) {
		out.record(cfg.log, e)
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	minOps := 1
	if cfg.traced {
		minOps = 2
	}
	var walls, cpus, tracedWalls, sec, att, ttf []float64
	var traced []roundTimes
	rt0 := readRuntime()
	start, startCPU := time.Now(), selfCPU()
	for i := 0; i < minOps || time.Since(start) < cfg.seconds; i++ {
		var t *tracer
		if cfg.traced && i%2 == 0 {
			t = tr
		}
		c0 := selfCPU()
		res, tm, err := runRound(ctx, in, t, fmt.Sprintf("round-%d", i))
		if err != nil {
			return nil, err
		}
		roundCPU := selfCPU() - c0
		for _, e := range digestErrors(res.digest(), want) {
			out.record(cfg.log, e)
		}
		if t != nil {
			tracedWalls = append(tracedWalls, tm.wall.Seconds())
			traced = append(traced, tm)
			continue
		}
		walls = append(walls, tm.wall.Seconds())
		cpus = append(cpus, roundCPU.Seconds())
		sec = append(sec, tm.security.Seconds())
		att = append(att, tm.attack.Seconds())
		ttf = append(ttf, tm.ttf.Seconds())
	}
	elapsed, phaseCPU := time.Since(start), selfCPU()-startCPU
	rt1 := readRuntime()
	rounds := len(walls) + len(tracedWalls)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	p50 := median(walls)
	out.detail.set("security_s", median(sec), "s")
	out.detail.set("attack_s", median(att), "s")
	out.detail.set("ttfsim_s", median(ttf), "s")
	out.detail.set("round_p50_s", p50, "s")
	out.detail.set("rounds_per_s", float64(rounds)/elapsed.Seconds(), "op/s")
	out.detail.set("setup_wall_s", median(setupWalls), "s")
	out.info["rounds"] = rounds
	out.info["digest"] = want
	out.info["ttf"] = ref.ttf
	out.info["op_quartiles_ms"] = quartilesMS(walls)
	out.info["op_cpu_quartiles_ms"] = quartilesMS(cpus)

	if !cfg.traced {
		out.result.setEndToEnd(cpus, rounds, phaseCPU, setups, rss)
		return out, nil
	}

	pick := func(f func(roundTimes) float64) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	d := out.detail
	loss := pick(func(t roundTimes) float64 { return t.security.Seconds() })
	d.set("montecarlo.loss_s", loss, "s")
	d.set("montecarlo.ns_per_period", loss*1e9/float64(in.loss.Periods), "ns")
	for k, s := range in.schemes {
		d.set("sim.attack."+metricSlug(s.Name)+"_s", pick(func(t roundTimes) float64 { return t.perScheme[k].Seconds() }), "s")
	}
	d.set("sim.ns_per_act", pick(func(t roundTimes) float64 { return t.attack.Seconds() * 1e9 / float64(t.attackACTs) }), "ns")
	d.set("system.mttf_s", pick(func(t roundTimes) float64 { return t.ttf.Seconds() }), "s")
	d.set("system.ns_per_trefi", pick(func(t roundTimes) float64 { return t.ttf.Seconds() * 1e9 / float64(t.trefis) }), "ns")

	coverage := make([]float64, len(traced))
	for i, t := range traced {
		coverage[i] = (t.security + t.attack + t.ttf).Seconds() / t.wall.Seconds()
	}
	out.info["accounting"] = accounting("montecarlo.loss_s + sim.attack_s + system.mttf_s", "round wall", coverage, campaignBand)
	out.record(cfg.log, bandErr("campaign", median(coverage), campaignBand))

	r := out.result
	r.setRuntimePerOp(rt0, rt1, rounds)
	// One worker runs every trial inline, so the pool is busy whenever a
	// campaign runs: utilisation is the campaigns' share of the round.
	r.set("trialrunner.util", median(coverage), "ratio")
	r.set("layer.coverage", median(coverage), "ratio")
	r.set("tracing.overhead", median(tracedWalls)/p50-1, "ratio")
	out.info["spans"] = spanPath(cfg)
	return out, tr.write(spanPath(cfg))
}

// campaignBand is the share of a round the three campaign calls must cover.
var campaignBand = [2]float64{0.99, 1.0}

// digestErrors checks a round's three campaigns, one operation each: an
// error for each campaign whose digest differs, nil for the others.
func digestErrors(got, want roundDigest) [3]error {
	var errs [3]error
	check := func(i int, name, g, w string) {
		if g != w {
			errs[i] = fmt.Errorf("%s campaign digest %s, want %s", name, g, w)
		}
	}
	check(0, "security", got.Security, want.Security)
	check(1, "attack", got.Attack, want.Attack)
	check(2, "ttfsim", got.TTF, want.TTF)
	return errs
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return fmt.Sprintf("%s/spans/%s-seed%d.jsonl", cfg.buildDir, cfg.workload, cfg.seed)
}
