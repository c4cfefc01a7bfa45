// Package system simulates a whole DRAM subsystem under attack: many banks,
// each with its own independently-seeded tracker, concurrently hammered the
// way Section VII-C's time-to-fail analysis assumes (all banks continuously
// attacked, tFAW limiting how many are active at once).
//
// Its purpose is end-to-end validation of the analytic TTF chain: at low
// device thresholds failures happen within simulable time, so the measured
// time-to-first-flip can be compared against analytic.SystemTTFYears — the
// same math that generates Table IX — rather than trusting the closed form
// alone.
package system

import (
	"fmt"
	"time"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/sim"
)

// TTFParams returns the DDR5 bank the time-to-fail campaigns run on
// (pride-ttfsim and the campaign daemon's ttfsim jobs). TTF depends on
// tracker behaviour, not bank capacity, so a 4096-row bank is faster than a
// full one and the checkpoint keys of both front ends agree.
func TTFParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	return p
}

// Config parameterizes a system-level attack simulation.
type Config struct {
	// Params are the per-bank DRAM parameters.
	Params dram.Params
	// Banks is the number of concurrently attacked banks (the paper's
	// tFAW-limited 22; each gets its own tracker and RNG stream).
	Banks int
	// TRH is the device double-sided Rowhammer threshold under test.
	TRH int
	// MaxTREFI bounds the simulation length in refresh intervals.
	MaxTREFI int
	// SelfCheck enables runtime invariant guards in every bank's
	// controller, bank and tracker (-selfcheck). A violated guard panics
	// with a guard.Violation; campaigns catch event-engine violations and
	// fall back to the exact engine. Not part of the checkpoint key.
	SelfCheck bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.Banks < 1:
		return fmt.Errorf("system: Banks must be >= 1, got %d", c.Banks)
	case c.TRH < 2:
		return fmt.Errorf("system: TRH must be >= 2, got %d", c.TRH)
	case c.MaxTREFI < 1:
		return fmt.Errorf("system: MaxTREFI must be >= 1, got %d", c.MaxTREFI)
	}
	return nil
}

// Result reports one system-level trial.
type Result struct {
	// Failed reports whether any bank flipped within the horizon.
	Failed bool
	// TimeToFail is the simulated time of the first flip (valid when
	// Failed).
	TimeToFail time.Duration
	// FailedBank is the index of the first failing bank.
	FailedBank int
	// TREFIsSimulated counts elapsed refresh intervals.
	TREFIsSimulated int
}

// gapUnset marks a bank whose next insertion gap has not been drawn yet.
// The draw is deferred to the moment the exact engine would consume it, so
// at p = 1 (where gaps are always zero) the two engines consume the shared
// per-bank stream in the same order and stay bit-identical.
const gapUnset = -1

// bank bundles one bank's simulation state.
type bankState struct {
	ctrl *memctrl.Controller
	pat  *patterns.Pattern

	// Event-engine state: the bank's private stream (shared with its
	// tracker), its gap sampler, and the idle ACTs remaining before the next
	// insertion — carried across tREFI boundaries.
	r   *rng.Stream
	sk  rng.Skip
	gap int
}

// runScratch is the reusable per-worker state of a system trial: the DRAM
// banks (reset between trials), the per-bank hammer patterns (rewound
// between trials), and the bank-state slice itself. A scratch is bound to
// one campaign's fixed Config; nothing in it ever reaches a Result, so the
// campaign's worker-count invariance is untouched.
type runScratch struct {
	drams  []*dram.Bank
	pats   []*patterns.Pattern
	states []bankState
}

// prepare sizes the scratch for n banks, keeping previously-built banks and
// patterns when the size already matches.
func (sc *runScratch) prepare(n int) {
	if len(sc.states) != n {
		sc.drams = make([]*dram.Bank, n)
		sc.pats = make([]*patterns.Pattern, n)
		sc.states = make([]bankState, n)
	}
}

// Run simulates every bank being double-sided-hammered continuously until
// the first bit flip or the horizon. Each bank runs the scheme with an
// independent RNG stream; time advances in lockstep, one tREFI at a time
// (W activations per bank per tREFI — the saturated-bus worst case of the
// paper's analysis).
func Run(cfg Config, s sim.Scheme, seed uint64) Result {
	return run(cfg, s, seed, &runScratch{}, engine.Exact)
}

// RunEngine is Run on the selected engine. The event engine carries each
// bank's geometric insertion gap across tREFI boundaries and retires the
// idle stretches through memctrl.ActivateRun; it falls back to the exact
// loop when the scheme's tracker does not support skip-ahead.
func RunEngine(cfg Config, s sim.Scheme, seed uint64, eng engine.Kind) Result {
	return run(cfg, s, seed, &runScratch{}, eng)
}

// run is Run against caller-supplied worker scratch, so campaign workers
// reuse bank arrays and patterns across trials.
func run(cfg Config, s sim.Scheme, seed uint64, sc *runScratch, eng engine.Kind) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	seeds := rng.New(seed)
	sc.prepare(cfg.Banks)
	banks := sc.states
	for i := range banks {
		if sc.drams[i] == nil {
			sc.drams[i] = dram.MustNewBank(cfg.Params, cfg.TRH)
		} else {
			sc.drams[i].Reset()
		}
		if sc.pats[i] == nil {
			// Distinct victims per bank; the pattern is the classic
			// double-sided hammer (Section VI's worst case for the
			// reported TRH-D).
			sc.pats[i] = patterns.DoubleSided(cfg.Params.RowsPerBank / 2)
		} else {
			sc.pats[i].Reset()
		}
		// Each bank's tracker and its gap sampler share one forked stream,
		// mirroring the exact engine's per-bank stream usage.
		br := seeds.Fork()
		trk := s.New(cfg.Params, br)
		mcfg := memctrl.DefaultConfig(cfg.Params)
		mcfg.RFMThreshold = s.RFMThreshold
		if s.MitigationEveryNREF > 0 {
			mcfg.MitigationEveryNREF = s.MitigationEveryNREF
		}
		mcfg.SelfCheck = cfg.SelfCheck
		banks[i] = bankState{
			ctrl: memctrl.New(mcfg, sc.drams[i], trk),
			pat:  sc.pats[i],
			r:    br,
			gap:  gapUnset,
		}
	}

	// All banks run the same scheme, so skip-ahead support is uniform:
	// probe bank 0 before any gap draw perturbs a stream.
	if eng == engine.Event {
		if _, ok := banks[0].ctrl.SkipAdvancer(); !ok {
			eng = engine.Exact
		} else {
			for i := range banks {
				sa, _ := banks[i].ctrl.SkipAdvancer()
				banks[i].sk = rng.NewSkip(rng.NewThreshold(sa.InsertionProb()))
			}
		}
	}

	w := cfg.Params.ACTsPerTREFI()
	if eng == engine.Event {
		// Banks never interact and each owns a private stream, so the
		// interleaved per-tREFI sweep is equivalent to running each bank to
		// completion on its own — and the per-bank pass is where the
		// multi-tREFI bulk advance lives: a long insertion gap is no longer
		// chopped into w-ACT windows but retired in one ActivateRunGroup
		// call, whose quiet-cadence collapse turns hundreds of refresh
		// windows into modular arithmetic.
		//
		// The lockstep loop returns the lexicographically first failure
		// (tREFI, then bank index). Banks run in index order against a
		// shrinking horizon: a later bank only wins by failing STRICTLY
		// earlier than the incumbent, so it needs at most incumbent-1
		// windows of simulation.
		best := Result{TREFIsSimulated: cfg.MaxTREFI}
		horizon := cfg.MaxTREFI
		for bi := range banks {
			if horizon == 0 {
				break
			}
			ft, failed := banks[bi].runEvent(w, horizon)
			if !failed {
				continue
			}
			best = Result{
				Failed:          true,
				TimeToFail:      time.Duration(ft) * cfg.Params.TREFI,
				FailedBank:      bi,
				TREFIsSimulated: ft,
			}
			horizon = ft - 1
		}
		return best
	}
	for trefi := 1; trefi <= cfg.MaxTREFI; trefi++ {
		for bi := range banks {
			b := &banks[bi]
			for a := 0; a < w; a++ {
				b.ctrl.Activate(b.pat.Next())
			}
			if len(b.ctrl.Bank().Flips()) > 0 {
				return Result{
					Failed:          true,
					TimeToFail:      time.Duration(trefi) * cfg.Params.TREFI,
					FailedBank:      bi,
					TREFIsSimulated: trefi,
				}
			}
		}
	}
	return Result{TREFIsSimulated: cfg.MaxTREFI}
}

// runEvent retires up to maxTREFI refresh intervals (maxTREFI*w demand ACTs)
// of the bank's hammer pattern on the event engine and reports the refresh
// interval of the bank's first bit flip, if any. Idle stretches are NOT
// split at tREFI boundaries — memctrl does its own exact boundary
// accounting — so a gap spanning many windows is one call. Chunks never
// exceed the remaining budget, so a detected flip always lands within the
// horizon; its window is recovered from the flip's global ACT index (window
// t covers ACTs (t-1)*w+1 .. t*w, with boundary REF flips attributed to the
// window they close — exactly the lockstep loop's attribution).
func (b *bankState) runEvent(w, maxTREFI int) (failTREFI int, failed bool) {
	left := maxTREFI * w
	for left > 0 {
		if b.gap == gapUnset {
			b.gap = b.r.SkipT(b.sk)
		}
		if b.gap >= left {
			b.idleACTs(left)
			b.gap -= left
			left = 0
		} else {
			b.idleACTs(b.gap)
			left -= b.gap
			b.ctrl.ActivateInsert(b.pat.Next())
			left--
			b.gap = gapUnset
		}
		if flips := b.ctrl.Bank().Flips(); len(flips) > 0 {
			return int((flips[0].ACTIndex + uint64(w) - 1) / uint64(w)), true
		}
	}
	return 0, false
}

// idleACTs retires n insertion-free activations of the bank's pattern. The
// double-sided pattern's 2-cycle goes through the batched multi-row path;
// exotic caller-supplied patterns with long cycles fall back to same-row
// run batching.
func (b *bankState) idleACTs(n int) {
	if n <= 0 {
		return
	}
	if b.pat.CycleLen() <= patterns.MaxBatchGroup {
		rows, phase := b.pat.Group()
		b.ctrl.ActivateRunGroup(rows, phase, n)
		b.pat.Advance(n)
		return
	}
	for n > 0 {
		row, k := b.pat.Run(n)
		b.ctrl.ActivateRun(row, k)
		b.pat.Advance(k)
		n -= k
	}
}
