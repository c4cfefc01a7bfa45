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

// bankState is one bank's simulation state: its controller, its hammer
// pattern and the private stream its tracker (and the event engine's gap
// draws) consume.
type bankState struct {
	ctrl *memctrl.Controller
	pat  *patterns.Pattern
	r    *rng.Stream
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
// the first bit flip or the horizon, on engine eng. Each bank runs the
// scheme with an independent RNG stream; the result is the first failure in
// time (W activations per bank per tREFI — the saturated-bus worst case of
// the paper's analysis), ties going to the lower bank index.
func Run(cfg Config, s sim.Scheme, seed uint64, eng engine.Kind) Result {
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
		// Each bank's tracker and the event engine's gap draws share one
		// forked stream.
		br := seeds.Fork()
		banks[i] = bankState{
			ctrl: s.Controller(cfg.Params, sc.drams[i], br, cfg.SelfCheck),
			pat:  sc.pats[i],
			r:    br,
		}
	}

	w := cfg.Params.ACTsPerTREFI()
	// All banks run the same scheme, so bank 0 tells how Drive runs them.
	if sim.DrivesByEvents(banks[0].ctrl, eng, sim.ClosedPage) {
		// Banks never interact and each owns a private stream, so the
		// interleaved per-tREFI sweep is equivalent to running each bank to
		// completion on its own — and one Drive per bank lets a long
		// insertion gap retire in one ActivateRunGroup call, whose
		// quiet-cadence collapse turns hundreds of refresh windows into
		// modular arithmetic.
		//
		// The lockstep sweep returns the lexicographically first failure
		// (tREFI, then bank index). Banks run in index order against a
		// shrinking horizon: a later bank only wins by failing STRICTLY
		// earlier than the incumbent, so it needs at most incumbent-1
		// windows of simulation. Drive never exceeds its budget, so a flip
		// lands within the horizon; its window is recovered from the
		// flip's global ACT index (window t covers ACTs (t-1)*w+1 .. t*w,
		// with boundary REF flips attributed to the window they close —
		// the lockstep sweep's attribution).
		best := Result{TREFIsSimulated: cfg.MaxTREFI}
		horizon := cfg.MaxTREFI
		for bi := 0; bi < len(banks) && horizon > 0; bi++ {
			b := &banks[bi]
			bank := b.ctrl.Bank()
			flipped := func() bool { return len(bank.Flips()) > 0 }
			if !sim.Drive(b.ctrl, b.pat, b.r, horizon*w, eng, sim.ClosedPage, flipped) {
				continue
			}
			ft := int((bank.Flips()[0].ACTIndex + uint64(w) - 1) / uint64(w))
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
	// Lockstep: one tREFI of every bank at a time, so the sweep stops at
	// the first failing tREFI.
	for trefi := 1; trefi <= cfg.MaxTREFI; trefi++ {
		for bi := range banks {
			b := &banks[bi]
			sim.Drive(b.ctrl, b.pat, b.r, w, eng, sim.ClosedPage, nil)
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
