// Package memctrl models the memory-controller-side machinery the paper's
// schemes rely on: the per-bank Rolling Accumulation of ACTs (RAA) counter
// that drives Refresh Management (RFM, Section V-A), the regular REF cadence
// that gives in-DRAM trackers their mitigation opportunities, and the
// dispatch of tracker decisions to the DRAM bank.
//
// The controller advances in activation granularity: every ACTsPerTREFI
// demand activations constitute one tREFI, at whose boundary a REF command
// is issued. This matches the granularity of the paper's security analysis
// (worst case: the attacker saturates the command bus).
package memctrl

import (
	"fmt"

	"pride/internal/baseline"
	"pride/internal/dram"
	"pride/internal/guard"
	"pride/internal/tracker"
)

// Config parameterizes a Controller.
type Config struct {
	// Params are the DRAM timing/structure parameters.
	Params dram.Params
	// RFMThreshold, when positive, issues an RFM command (an extra
	// mitigation opportunity) every time the bank's RAA counter reaches
	// it (Section V-A). Zero disables RFM.
	RFMThreshold int
	// MitigationEveryNREF is how many REF commands pass between tracker
	// mitigations (DDR5 allows 1 or 2; the paper defaults to 1).
	MitigationEveryNREF int
	// PeriodicRefresh, when true, models the regular refresh sweep
	// (resetting row hammer counts once per tREFW). Attack experiments
	// shorter than a tREFW can disable it for speed.
	PeriodicRefresh bool
	// SelfCheck enables runtime invariant guards on the controller's
	// cadence machinery (tREFI position, RAA counter bounds, skip-ahead
	// progress) and propagates to the bank and tracker at construction.
	// A violated guard panics with a guard.Violation.
	SelfCheck bool
}

// DefaultConfig returns the paper's default controller configuration for
// the given parameters: mitigation every REF, no RFM.
func DefaultConfig(p dram.Params) Config {
	return Config{Params: p, MitigationEveryNREF: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.MitigationEveryNREF < 1 {
		return fmt.Errorf("memctrl: MitigationEveryNREF must be >= 1, got %d", c.MitigationEveryNREF)
	}
	if c.RFMThreshold < 0 {
		return fmt.Errorf("memctrl: RFMThreshold must be >= 0, got %d", c.RFMThreshold)
	}
	return nil
}

// Stats counts controller-level events for the performance and energy
// models.
type Stats struct {
	// ACTs is the number of demand activations issued.
	ACTs uint64
	// REFs is the number of refresh commands issued.
	REFs uint64
	// RFMs is the number of RFM commands issued.
	RFMs uint64
	// Mitigations is the number of tracker mitigations dispatched.
	Mitigations uint64
	// VictimRefreshes is the number of rows refreshed by mitigations.
	VictimRefreshes uint64
}

// Controller drives one DRAM bank and its tracker.
type Controller struct {
	cfg  Config
	bank *dram.Bank
	trk  tracker.Tracker
	// im and sa cache the tracker's optional capabilities, hoisting the
	// interface assertions out of the per-ACT hot path. Either is nil when
	// the tracker lacks the capability. sa is the shared fast-forward
	// surface; the engines refine it to SkipAdvancer (geometric gaps) or
	// ScheduledAdvancer (interval schedules) before they advance.
	im baseline.ImmediateMitigator
	sa tracker.Advancer
	// idm caches the tracker's IdleMitigator capability: when non-nil and
	// the tracker is empty, whole insertion-free cadence stretches collapse
	// to modular arithmetic (see quietCadence).
	idm tracker.IdleMitigator
	// ba caches the tracker's BatchActivator capability, which ActivateRows
	// hands a whole segment's rows to.
	ba tracker.BatchActivator
	// w is Params.ACTsPerTREFI(), the tREFI window in demand ACTs, computed
	// once so the per-ACT cadence check is a compare, not a divide.
	w int

	actsInTREFI         int
	refsSinceMitigation int
	raa                 int
	stats               Stats
}

// New returns a controller gluing bank and trk under cfg. It panics on an
// invalid configuration (experiment-setup-time failure).
func New(cfg Config, bank *dram.Bank, trk tracker.Tracker) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if bank == nil || trk == nil {
		panic("memctrl: nil bank or tracker")
	}
	c := &Controller{cfg: cfg, bank: bank, trk: trk, w: cfg.Params.ACTsPerTREFI()}
	c.im, _ = trk.(baseline.ImmediateMitigator)
	c.sa, _ = trk.(tracker.Advancer)
	c.idm, _ = trk.(tracker.IdleMitigator)
	c.ba, _ = trk.(tracker.BatchActivator)
	if cfg.SelfCheck {
		bank.SetSelfCheck(true)
		if sc, ok := trk.(tracker.SelfChecker); ok {
			sc.SetSelfCheck(true)
		}
	}
	return c
}

// Bank returns the controlled bank.
func (c *Controller) Bank() *dram.Bank { return c.bank }

// Tracker returns the controlled tracker.
func (c *Controller) Tracker() tracker.Tracker { return c.trk }

// Stats returns a copy of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

// Activate issues one demand activation: the bank hammers its neighbours,
// the tracker observes the row, immediate (controller-side) mitigations are
// drained, the RAA counter advances, and tREFI boundaries trigger REF.
func (c *Controller) Activate(row int) {
	c.bank.Activate(row)
	c.trk.OnActivate(row)
	if c.im != nil {
		c.drainImmediate()
	}
	c.advance(1)
}

// ActivateRows issues one demand activation per row, in order, with a
// result identical to calling Activate on each row. It cuts the rows at
// every RFM and REF boundary by ActivateRun's segment rule. Between two
// boundaries the bank and the tracker never read each other's state, so
// each segment runs through one bank loop, then through the tracker's
// batch method (per-row OnActivate for a tracker without one), and then
// the boundary fires. A tracker that mitigates immediately (PARA, MOAT,
// the counter baselines) dispatches into the bank after each ACT, so its
// segments keep the per-ACT step. OnFlip and tracker observers therefore
// see a segment's bank events before its tracker events.
func (c *Controller) ActivateRows(rows []int32) {
	for len(rows) > 0 {
		k := c.segment(len(rows), "ActivateRows")
		seg := rows[:k]
		switch {
		case c.im != nil:
			for _, r := range seg {
				c.bank.Activate(int(r))
				c.trk.OnActivate(int(r))
				c.drainImmediate()
			}
		case c.ba != nil:
			c.bank.ActivateRows(seg)
			c.ba.OnActivateRows(seg)
		default:
			c.bank.ActivateRows(seg)
			for _, r := range seg {
				c.trk.OnActivate(int(r))
			}
		}
		c.advance(k)
		rows = rows[k:]
	}
}

// SkipAdvancer returns the tracker's geometric skip-ahead capability, if the
// tracker implements it AND its current configuration supports
// pattern-independent insertion. sim.Drive calls it at the start of each
// drive to decide between the skip-ahead and exact paths.
func (c *Controller) SkipAdvancer() (tracker.SkipAdvancer, bool) {
	if c.sa == nil || !c.sa.SupportsSkipAhead() {
		return nil, false
	}
	sa, ok := c.sa.(tracker.SkipAdvancer)
	return sa, ok
}

// ScheduledAdvancer returns the tracker's scheduled skip-ahead capability
// (MINT-style interval schedules), under the same setup-time gating as
// SkipAdvancer.
func (c *Controller) ScheduledAdvancer() (tracker.ScheduledAdvancer, bool) {
	if c.sa == nil || !c.sa.SupportsSkipAhead() {
		return nil, false
	}
	sa, ok := c.sa.(tracker.ScheduledAdvancer)
	return sa, ok
}

// ACTsToNextMitigation returns how many demand activations from now the next
// mitigation opportunity fires (REF at the configured cadence, or RFM,
// whichever comes first) — always >= 1. Scheduled skip-ahead engines use it
// to bound idle stretches so the tracker's schedule is re-queried after
// every opportunity.
func (c *Controller) ACTsToNextMitigation() int {
	w := c.w
	refsNeeded := c.cfg.MitigationEveryNREF - c.refsSinceMitigation
	n := (refsNeeded-1)*w + (w - c.actsInTREFI)
	if c.cfg.RFMThreshold > 0 {
		if d := c.cfg.RFMThreshold - c.raa; d < n {
			n = d
		}
	}
	return n
}

// ActivateInsert issues one demand activation whose tracker insertion was
// pre-decided by the caller's geometric gap draw: identical to Activate
// except the tracker applies the insertion without drawing. The tracker must
// support skip-ahead (see SkipAdvancer); calling it otherwise panics.
func (c *Controller) ActivateInsert(row int) {
	c.bank.Activate(row)
	c.sa.ActivateInsert(row)
	if c.im != nil {
		c.drainImmediate()
	}
	c.advance(1)
}

// ActivateRun issues n consecutive demand activations of row, all of whose
// tracker insertion draws failed (the caller's gap sampling guarantees no
// insertion lands inside the run). The bank's hammer accounting is retired
// in closed-form segments split EXACTLY at the cadence boundaries the
// stepped path would hit — every RFM and REF fires after the same ACT, in
// the same order (RFM before REF when both land on one ACT) — so the
// deterministic component is ACT-for-ACT identical to n Activate calls.
// Cost is O(n/W) boundary events instead of O(n).
func (c *Controller) ActivateRun(row, n int) {
	if n < 0 {
		panic(fmt.Sprintf("memctrl: ActivateRun(%d, %d)", row, n))
	}
	for n > 0 {
		// Re-checked every segment, not just at entry: a run that starts with
		// an occupied tracker walks boundaries only until the REFs drain it,
		// then the remaining stretch collapses to modular arithmetic.
		if c.quietCadence(n) {
			c.bank.HammerN(row, n)
			return
		}
		k := c.segment(n, "ActivateRun")
		c.bank.HammerN(row, k)
		c.sa.AdvanceIdle(k)
		c.advance(k)
		n -= k
	}
}

// ActivateRunGroup issues n consecutive demand activations that walk the
// repeating row group cyclically starting at phase — activation i goes to
// rows[(phase+i) mod len(rows)] — all of whose tracker insertion draws
// failed. It is the multi-row generalization of ActivateRun: segments are
// split at EXACTLY the stepped path's cadence boundaries (RFM before REF on
// coincident ACTs) and the bank's per-row hammer accounting is retired in
// closed form by dram.Bank.HammerCycle, so an alternating pattern like the
// double-sided pair no longer degenerates to per-ACT calls.
func (c *Controller) ActivateRunGroup(rows []int, phase, n int) {
	q := len(rows)
	if q == 0 || phase < 0 || phase >= q || n < 0 {
		panic(fmt.Sprintf("memctrl: ActivateRunGroup(|%d|, %d, %d)", q, phase, n))
	}
	if q == 1 {
		c.ActivateRun(rows[0], n)
		return
	}
	for n > 0 {
		// Same mid-run collapse as ActivateRun: once the REF cadence empties
		// the tracker, the rest of the stretch is one HammerCycle burst.
		if c.quietCadence(n) {
			c.bank.HammerCycle(rows, phase, n)
			return
		}
		if c.cfg.SelfCheck && (phase < 0 || phase >= q) {
			guard.Failf("memctrl", "group-phase", "ActivateRunGroup: phase %d outside [0,%d)", phase, q)
		}
		k := c.segment(n, "ActivateRunGroup")
		c.bank.HammerCycle(rows, phase, k)
		c.sa.AdvanceIdle(k)
		phase = (phase + k) % q
		c.advance(k)
		n -= k
	}
}

// segment returns how many of the next n demand ACTs run before the next
// cadence boundary: the rest of the current tREFI, capped by the rest of
// the RFM window and by n. It is the one segment rule of ActivateRows,
// ActivateRun and ActivateRunGroup; op names the caller in guard reports.
func (c *Controller) segment(n int, op string) int {
	w := c.w
	if c.cfg.SelfCheck {
		// Cadence monotonicity: a segment must start strictly inside the
		// current tREFI (and RFM window), or a boundary was missed and the
		// split will drift from the stepped path.
		if c.actsInTREFI < 0 || c.actsInTREFI >= w {
			guard.Failf("memctrl", "trefi-position", "%s: actsInTREFI %d outside [0,%d)", op, c.actsInTREFI, w)
		}
		if c.cfg.RFMThreshold > 0 && (c.raa < 0 || c.raa >= c.cfg.RFMThreshold) {
			guard.Failf("memctrl", "raa-bound", "%s: raa %d outside [0,%d)", op, c.raa, c.cfg.RFMThreshold)
		}
	}
	k := w - c.actsInTREFI
	if c.cfg.RFMThreshold > 0 {
		if d := c.cfg.RFMThreshold - c.raa; d < k {
			k = d
		}
	}
	if n < k {
		k = n
	}
	if c.cfg.SelfCheck && k < 1 {
		// Progress: every segment must retire at least one ACT, or the
		// split loops forever.
		guard.Failf("memctrl", "skip-progress", "%s: segment length %d with %d ACTs left", op, k, n)
	}
	return k
}

// quietCadence attempts to retire the controller-side cadence of n
// insertion-free demand ACTs in closed form. When the tracker is an
// IdleMitigator and currently EMPTY, and the periodic refresh sweep is off,
// every cadence event inside the run is pure bookkeeping: no insertion can
// land mid-run (the caller's gap draw guarantees it), so each REF and RFM
// finds the tracker empty, pops nothing, draws nothing, and touches no bank
// state. The counters then advance in modular arithmetic — O(1) instead of
// O(n/W) boundary events — with a result bit-identical to the boundary
// walk. Returns false, doing nothing, when the collapse does not apply; the
// caller falls back to the boundary-splitting loop. The bank's hammer burst
// is the caller's responsibility either way.
func (c *Controller) quietCadence(n int) bool {
	if c.idm == nil || c.cfg.PeriodicRefresh || c.trk.Occupancy() != 0 || n == 0 {
		return false
	}
	w := c.w
	if c.cfg.SelfCheck {
		if c.actsInTREFI < 0 || c.actsInTREFI >= w {
			guard.Failf("memctrl", "trefi-position", "quietCadence: actsInTREFI %d outside [0,%d)", c.actsInTREFI, w)
		}
		if c.cfg.RFMThreshold > 0 && (c.raa < 0 || c.raa >= c.cfg.RFMThreshold) {
			guard.Failf("memctrl", "raa-bound", "quietCadence: raa %d outside [0,%d)", c.raa, c.cfg.RFMThreshold)
		}
	}
	c.stats.ACTs += uint64(n)
	c.sa.AdvanceIdle(n)
	rfms := 0
	if t := c.cfg.RFMThreshold; t > 0 {
		rfms = (c.raa + n) / t
		c.raa = (c.raa + n) % t
		c.stats.RFMs += uint64(rfms)
	}
	refs := (c.actsInTREFI + n) / w
	c.actsInTREFI = (c.actsInTREFI + n) % w
	c.stats.REFs += uint64(refs)
	mits := (c.refsSinceMitigation + refs) / c.cfg.MitigationEveryNREF
	c.refsSinceMitigation = (c.refsSinceMitigation + refs) % c.cfg.MitigationEveryNREF
	c.idm.AdvanceIdleMitigations(rfms + mits)
	return true
}

// drainImmediate dispatches the mitigations a controller-side scheme
// (PARA, Graphene) issued on the last activation. Callers check c.im.
func (c *Controller) drainImmediate() {
	for _, m := range c.im.DrainImmediate() {
		c.dispatch(m)
	}
}

// advance is the one RFM/REF boundary step: it retires k demand ACTs that
// stay within one segment (see segment; k = 1 for a single activation) and
// fires the boundary they reach, RFM before REF when both land on the last
// ACT — the stepped path's order.
func (c *Controller) advance(k int) {
	c.stats.ACTs += uint64(k)
	// RFM: one extra mitigation opportunity per threshold ACTs.
	if t := c.cfg.RFMThreshold; t > 0 {
		c.raa += k
		if c.cfg.SelfCheck && c.raa > t {
			guard.Failf("memctrl", "raa-bound", "advance: raa %d exceeds threshold %d", c.raa, t)
		}
		if c.raa >= t {
			c.raa = 0
			c.stats.RFMs++
			c.mitigationOpportunity()
		}
	}
	c.actsInTREFI += k
	if c.cfg.SelfCheck && c.actsInTREFI > c.w {
		guard.Failf("memctrl", "trefi-position", "advance: actsInTREFI %d exceeds window %d", c.actsInTREFI, c.w)
	}
	if c.actsInTREFI >= c.w {
		c.actsInTREFI = 0
		c.ref()
	}
}

// Idle advances time by one tREFI with no demand traffic (the bus is
// quiet, but REF keeps firing). Attackers never want this; victims do.
func (c *Controller) Idle() {
	c.actsInTREFI = 0
	c.ref()
}

// ref issues one REF command: the periodic refresh sweep (optional) plus the
// in-DRAM tracker's mitigation opportunity at the configured cadence.
func (c *Controller) ref() {
	c.stats.REFs++
	if c.cfg.PeriodicRefresh {
		c.bank.StepRefresh()
	}
	c.refsSinceMitigation++
	if c.refsSinceMitigation >= c.cfg.MitigationEveryNREF {
		c.refsSinceMitigation = 0
		c.mitigationOpportunity()
	}
}

// mitigationOpportunity lets the tracker pick a victim and dispatches it.
func (c *Controller) mitigationOpportunity() {
	if m, ok := c.trk.OnMitigate(); ok {
		c.dispatch(m)
	}
}

// dispatch performs one mitigation on the bank.
func (c *Controller) dispatch(m tracker.Mitigation) {
	c.stats.Mitigations++
	c.stats.VictimRefreshes += uint64(c.bank.Mitigate(m.Row, m.Level))
}

// Reset clears bank, tracker and controller state.
func (c *Controller) Reset() {
	c.bank.Reset()
	c.trk.Reset()
	c.actsInTREFI = 0
	c.refsSinceMitigation = 0
	c.raa = 0
	c.stats = Stats{}
}
