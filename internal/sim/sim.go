// Package sim is the full-system attack simulator: it replays attack
// patterns (internal/patterns) through a memory controller
// (internal/memctrl) driving a DRAM bank (internal/dram) protected by a
// tracker (internal/core, internal/baseline or internal/tracker), and
// measures the paper's evaluation metrics — Maximum Disturbance for Fig 15
// and per-row measured loss probability for Fig 18 / Appendix C.
package sim

import (
	"fmt"

	"pride/internal/baseline"
	"pride/internal/core"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/memctrl"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/tracker"
)

// Scheme bundles a tracker factory with the controller setting the scheme
// needs (its RFM threshold); every scheme mitigates at every REF.
// Factories take a private RNG stream so trials with different seeds are
// independent.
type Scheme struct {
	Name string
	// RFMThreshold configures the controller's RAA counter (0 = no RFM).
	RFMThreshold int
	// New constructs a fresh tracker for one trial.
	New func(p dram.Params, r *rng.Stream) tracker.Tracker
}

// Controller builds the scheme's tracker on stream r and wires it to bank
// under the scheme's RFM threshold and memctrl's every-REF mitigation
// cadence, with the controller's, bank's and tracker's invariant guards
// armed when selfCheck is set. It is the one place a scheme becomes a
// controller: the attack, TTF and replay front ends all build theirs here
// (replay sets a copy's RFMThreshold to the channel's budget first).
func (s Scheme) Controller(p dram.Params, bank *dram.Bank, r *rng.Stream, selfCheck bool) *memctrl.Controller {
	cfg := memctrl.DefaultConfig(p)
	cfg.RFMThreshold = s.RFMThreshold
	cfg.SelfCheck = selfCheck
	return memctrl.New(cfg, bank, s.New(p, r))
}

// PrIDEScheme returns the paper's default PrIDE configuration as a Scheme.
func PrIDEScheme() Scheme {
	return Scheme{
		Name: "PrIDE",
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			cfg := core.DefaultConfig(p.ACTsPerTREFI())
			cfg.RowBits = p.RowBits
			return core.New(cfg, r)
		},
	}
}

// PrIDERFMScheme returns PrIDE co-designed with RFM at the given threshold.
func PrIDERFMScheme(threshold int) Scheme {
	return Scheme{
		Name:         fmt.Sprintf("PrIDE+RFM%d", threshold),
		RFMThreshold: threshold,
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			cfg := core.RFMConfig(threshold)
			cfg.RowBits = p.RowBits
			return core.New(cfg, r)
		},
	}
}

// Fig15Schemes returns the tracker line-up of Figure 15: PRoHIT, DSAC,
// PARA-MC, PARFM, and PrIDE without RFM, plus the PrIDE RFM co-designs.
func Fig15Schemes() []Scheme {
	return []Scheme{
		{
			Name: "PRoHIT",
			New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
				return baseline.NewPRoHIT(baseline.DefaultPRoHITEntries, p.RowBits,
					baseline.DefaultPRoHITInsertProb, baseline.DefaultPRoHITPromoteProb, r)
			},
		},
		{
			Name: "DSAC",
			New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
				return baseline.NewDSAC(baseline.DefaultDSACEntries, p.RowBits, r)
			},
		},
		{
			Name: "PARA-MC",
			New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
				return baseline.NewPARA(1/float64(p.ACTsPerTREFI()+1), r)
			},
		},
		{
			Name: "PARFM",
			New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
				return baseline.NewPARFM(p.ACTsPerTREFI(), p.RowBits, r)
			},
		},
		PrIDEScheme(),
		PrIDERFMScheme(core.RFM40),
		PrIDERFMScheme(core.RFM16),
	}
}

// TRRScheme returns the vendor-style deterministic TRR baseline (a small
// counter table with periodic-eviction weaknesses). It is not part of the
// paper's Figure 15 line-up, but the adversarial search targets it because
// it represents the deployed in-DRAM trackers the TRRespass/Blacksmith line
// of work bypassed.
func TRRScheme() Scheme {
	return Scheme{
		Name: "TRR",
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return baseline.NewTRR(baseline.DefaultTRREntries, p.RowBits)
		},
	}
}

// MINTScheme returns the minimalist single-slot interval tracker
// (arXiv:2407.16038): one mitigation per tREFI like PrIDE, but the inserted
// activation is pre-selected per interval instead of drawn per ACT.
func MINTScheme() Scheme {
	return Scheme{
		Name: "MINT",
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return tracker.NewMINT(p.ACTsPerTREFI(), p.RowBits, r)
		},
	}
}

// MOATScheme returns the per-row-counter PRAC tracker (arXiv:2407.09995)
// with the default ATI/ATO thresholds. MOAT is deterministic and
// pattern-dependent, so the event engine falls back to the exact per-ACT
// loop for it.
func MOATScheme() Scheme {
	return Scheme{
		Name: "MOAT",
		New: func(p dram.Params, r *rng.Stream) tracker.Tracker {
			return tracker.NewMOAT(p.RowsPerBank, p.RowBits, tracker.DefaultMOATATI, tracker.DefaultMOATATO)
		},
	}
}

// ZooSchemes returns the cross-design tracker zoo beyond the paper's own
// line-up: the related-work trackers the shootout compares PrIDE against.
func ZooSchemes() []Scheme {
	return []Scheme{MINTScheme(), MOATScheme()}
}

// SearchSchemes returns the tracker line-up the adversarial search targets:
// the Figure 15 schemes plus the TRR baseline and the tracker zoo.
func SearchSchemes() []Scheme {
	return append(append(Fig15Schemes(), TRRScheme()), ZooSchemes()...)
}

// SchemeByName resolves a scheme from SearchSchemes by its exact name.
func SchemeByName(name string) (Scheme, error) {
	var names []string
	for _, s := range SearchSchemes() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Scheme{}, fmt.Errorf("sim: unknown scheme %q (have %v)", name, names)
}

// RowPolicy selects the DRAM page policy for a trial.
type RowPolicy int

const (
	// ClosedPage precharges after every access, so every access is an
	// activation — the attacker's best case, and the paper's default
	// assumption (Section IV-D).
	ClosedPage RowPolicy = iota
	// OpenPage keeps the last row open: consecutive accesses to the same
	// row do not re-activate it, so an attacker must interleave rows to
	// hammer (Section IV-D: "there must be an intervening access to
	// another row to cause multiple activations to the same target row").
	OpenPage
)

// AttackParams returns the DDR5 bank the paper's attack experiments run on:
// Fig 15, the island search, the tracker shootout and the campaign daemon's
// attack jobs. Attacks span a small row window, so an 8192-row bank is
// faster than a full one and the checkpoint keys of every front end agree.
func AttackParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	return p
}

// AttackConfig parameterizes one attack trial.
type AttackConfig struct {
	Params dram.Params
	// ACTs is the trial length in demand activations (the paper attacks
	// for a full refresh window, ~650K ACTs; tests scale down).
	ACTs int
	// TRH, when positive, enables bit-flip detection at that device
	// threshold.
	TRH int
	// Policy is the page policy; the zero value is the paper's
	// closed-page worst case.
	Policy RowPolicy
	// SelfCheck enables runtime invariant guards in the controller, bank
	// and tracker for this trial (-selfcheck). A violated guard panics
	// with a guard.Violation; campaigns catch event-engine violations and
	// fall back to the exact engine. Not part of any checkpoint key.
	SelfCheck bool
}

// Validate reports whether the config describes a runnable attack trial.
// RunAttack and the campaigns panic on an invalid config (a programming
// error in the calling binary); services validating externally-supplied
// specs call this first and reject the spec instead.
func (c AttackConfig) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("sim: %v", err)
	}
	if c.ACTs <= 0 {
		return fmt.Errorf("sim: ACTs must be positive, got %d", c.ACTs)
	}
	if c.TRH < 0 {
		return fmt.Errorf("sim: TRH must be >= 0, got %d", c.TRH)
	}
	if c.Policy != ClosedPage && c.Policy != OpenPage {
		return fmt.Errorf("sim: unknown row policy %d", c.Policy)
	}
	return nil
}

// AttackResult reports one trial's metrics.
type AttackResult struct {
	Scheme  string
	Pattern string
	// MaxDisturbance is the maximum activations any row received before a
	// mitigation ended its round (Fig 15's metric).
	MaxDisturbance int
	// MaxHammers is the peak disturbance any victim accumulated,
	// including transitive (silent) activations.
	MaxHammers int
	// Flips is the number of Rowhammer failures (when TRH > 0).
	Flips int
	// Mitigations is the number of mitigations dispatched.
	Mitigations uint64
}

// attackScratch is the reusable working state of one campaign worker: the
// DRAM bank (reset between trials) and lazily-built per-suite-index pattern
// clones, so a long campaign allocates its row arrays and clones once per
// worker instead of once per trial. A scratch is bound to one campaign's
// fixed AttackConfig; nothing in it ever reaches a result, so worker-count
// invariance is untouched.
type attackScratch struct {
	bank   *dram.Bank
	clones []*patterns.Pattern
}

// bankFor returns a freshly-reset bank for the campaign's fixed parameters,
// allocating it on the worker's first trial.
func (sc *attackScratch) bankFor(p dram.Params, trh int) *dram.Bank {
	if sc.bank == nil {
		sc.bank = dram.MustNewBank(p, trh)
	} else {
		sc.bank.Reset()
	}
	return sc.bank
}

// clone returns this worker's private clone of suite[i], building it on
// first use. RunAttack resets the pattern cursor itself, so reuse across
// trials is safe.
func (sc *attackScratch) clone(suite []*patterns.Pattern, i int) *patterns.Pattern {
	if len(sc.clones) != len(suite) {
		sc.clones = make([]*patterns.Pattern, len(suite))
	}
	if sc.clones[i] == nil {
		sc.clones[i] = suite[i].Clone()
	}
	return sc.clones[i]
}

// RunAttack replays one pattern against one scheme for cfg.ACTs activations
// on engine eng and returns the measured metrics. The tracker and the event
// engine's gap draws share one stream seeded with seed; see Drive for how
// each engine retires the activations.
func RunAttack(cfg AttackConfig, s Scheme, pat *patterns.Pattern, seed uint64, eng engine.Kind) AttackResult {
	return runAttack(cfg, s, pat, seed, nil, eng)
}

// runAttack is RunAttack against a caller-supplied, freshly-reset bank
// matching cfg (nil allocates one), so campaign workers can reuse a bank
// across trials.
func runAttack(cfg AttackConfig, s Scheme, pat *patterns.Pattern, seed uint64, bank *dram.Bank, eng engine.Kind) AttackResult {
	if cfg.ACTs <= 0 {
		panic(fmt.Sprintf("sim: ACTs must be positive, got %d", cfg.ACTs))
	}
	if bank == nil {
		bank = dram.MustNewBank(cfg.Params, cfg.TRH)
	}
	r := rng.New(seed)
	ctrl := s.Controller(cfg.Params, bank, r, cfg.SelfCheck)
	pat.Reset()
	Drive(ctrl, pat, r, cfg.ACTs, eng, cfg.Policy, nil)
	return attackResult(s, pat, bank, ctrl)
}

// attackResult collects one trial's metrics from the bank and controller.
func attackResult(s Scheme, pat *patterns.Pattern, bank *dram.Bank, ctrl *memctrl.Controller) AttackResult {
	return AttackResult{
		Scheme:         s.Name,
		Pattern:        pat.Name,
		MaxDisturbance: bank.MaxDisturbance(),
		MaxHammers:     bank.MaxHammers(),
		Flips:          len(bank.Flips()),
		Mitigations:    ctrl.Stats().Mitigations,
	}
}
