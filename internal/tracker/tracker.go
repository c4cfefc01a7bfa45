// Package tracker defines the interface shared by every in-DRAM (and
// controller-side) Rowhammer tracker in this repository: the paper's PrIDE
// as well as the baselines it is compared against (TRR, DSAC, PRoHIT, PARA,
// PARFM, Graphene).
//
// A tracker, per Section II-G of the paper, is an N-entry structure managed
// by three policies — insertion, eviction, and mitigation — and the interface
// mirrors exactly the two events those policies react to: a demand activation
// and a mitigation opportunity.
package tracker

// Mitigation describes one mitigative action selected by a tracker: refresh
// the neighbours of Row at distance band Level (Level 1 = the immediately
// adjacent rows; Level m = the m-th neighbours, used by PrIDE's
// transitive-attack defence, Section IV-E).
type Mitigation struct {
	Row   int
	Level int
}

// Tracker is the canonical in-DRAM tracker abstraction.
//
// Implementations are single-goroutine objects: a DRAM bank's mitigation
// engine is inherently serial, and the simulators drive one tracker per bank
// from one goroutine. None of the implementations in this repository are
// safe for concurrent use, by design.
type Tracker interface {
	// Name returns a short scheme identifier ("PrIDE", "DSAC", ...).
	Name() string

	// OnActivate observes one demand activation of row. The tracker may
	// update internal state (sample the row, bump counters, ...).
	OnActivate(row int)

	// OnMitigate is called at each mitigation opportunity (every REF for
	// the default 1-per-tREFI rate, plus every RFM when co-designed with
	// refresh management). It returns the mitigation the device should
	// perform and true, or false if the tracker has nothing to mitigate.
	OnMitigate() (Mitigation, bool)

	// Occupancy returns the number of currently valid tracking entries.
	Occupancy() int

	// StorageBits returns the per-bank SRAM cost of the tracker in bits,
	// used for Table XI style storage comparisons.
	StorageBits() int

	// Reset restores the tracker to its initial (empty) state without
	// reseeding any internal randomness source.
	Reset()
}

// BatchActivator is implemented by trackers that observe a run of demand
// activations in one call. Between two mitigation opportunities a
// tracker's insertion decisions never read the DRAM bank, so the exact
// replay step hands each REF/RFM segment's rows to the bank first and then
// to the tracker in one call.
type BatchActivator interface {
	Tracker

	// OnActivateRows observes rows in order. It must leave the tracker in
	// exactly the state OnActivate(int(row)) for each row would, consuming
	// the same draws in the same order.
	OnActivateRows(rows []int32)
}

// Advancer is the fast-forward surface shared by every tracker the
// event-driven engines can skip ahead: the pattern-independent insertion
// decision has been pre-resolved by the caller (a geometric gap draw for
// Bernoulli trackers, a schedule query for interval trackers), so idle
// stretches retire in bulk and the chosen activation applies without a draw.
//
// The pair (AdvanceIdle(n); ActivateInsert(row)) must leave the tracker in
// exactly the state n non-inserting OnActivate calls followed by one
// inserting OnActivate(row) would, while consuming ZERO draws from the
// tracker's randomness stream. Draws made outside OnActivate (e.g. PrIDE's
// transitive re-insertion inside OnMitigate, MINT's next-interval selection)
// are unaffected and still come from the tracker's stream.
type Advancer interface {
	Tracker

	// SupportsSkipAhead reports whether the CURRENT configuration keeps the
	// insertion decision state-independent. Configurations that couple
	// insertion to buffer contents (PrIDE's deliberately insecure R1/R2
	// ablation switches) must return false, directing the engines back to
	// the exact per-ACT path.
	SupportsSkipAhead() bool

	// AdvanceIdle accounts for n consecutive activations that do not
	// insert. Equivalent to n OnActivate calls that do not insert;
	// consumes no draws. n may be zero; negative n panics.
	AdvanceIdle(n int)

	// ActivateInsert observes one activation whose insertion was
	// pre-decided by the caller. Equivalent to an OnActivate(row) that
	// inserts; consumes no draws.
	ActivateInsert(row int)
}

// SkipAdvancer is implemented by trackers whose insertion decision is an
// i.i.d. Bernoulli(p) draw independent of tracker state — PrIDE's defining
// property (requirements R1/R2 of Section IV-B) and PARA's by construction.
// For such trackers the event-driven engines replace the per-ACT
// draw-and-probe loop with geometric inter-arrival sampling: draw the gap to
// the next insertion once (consuming the one draw that stands in for the
// n+1 Bernoulli draws), account for the gap with AdvanceIdle, and apply the
// insertion with ActivateInsert.
type SkipAdvancer interface {
	Advancer

	// InsertionProb returns the per-ACT insertion probability p the
	// skip-ahead gap must be sampled with.
	InsertionProb() float64
}

// ScheduledAdvancer is implemented by trackers whose insertion decision is a
// pattern-independent SCHEDULE rather than an i.i.d. per-ACT draw: MINT
// picks one activation slot per mitigation interval ahead of time, so the
// position of the next insertion is already known and geometric gap sampling
// would simulate the wrong process. The event engines instead query the
// schedule, idle up to either the scheduled slot or the next mitigation
// opportunity (whichever comes first), and re-query after every mitigation —
// OnMitigate is where scheduled trackers advance their schedule.
//
// Because the schedule is drawn outside OnActivate, the event path consumes
// draws in exactly the exact path's order, making the two engines
// bit-identical for any insertion probability, not just p = 1.
type ScheduledAdvancer interface {
	Advancer

	// NextInsert returns the number of idle activations before the next
	// scheduled insertion, and ok=true if one is still pending in the
	// current mitigation interval. ok=false means no activation inserts
	// until after the next OnMitigate (the slot was already captured, or
	// the schedule points past the interval). It is a pure query: no draws,
	// no state change, stable across repeated calls.
	NextInsert() (idle int, ok bool)
}

// IdleMitigator is implemented by trackers for which a mitigation
// opportunity arriving at an EMPTY tracker is a pure counter event: no
// draws, no state change, nothing observable beyond bookkeeping. The
// event engines use it to retire whole stretches of mitigation cadence in
// closed form while the tracker is empty — PrIDE qualifies (an empty pop
// returns before any draw or observer event), MINT does not (its
// OnMitigate advances the interval schedule and draws regardless of
// occupancy) and so deliberately omits the method.
type IdleMitigator interface {
	Tracker

	// AdvanceIdleMitigations accounts for n mitigation opportunities that
	// each found the tracker empty. Equivalent to n OnMitigate calls with
	// Occupancy()==0; consumes no draws. n may be zero; negative n panics.
	AdvanceIdleMitigations(n int)
}

// SelfChecker is implemented by trackers that can enable runtime invariant
// guards (-selfcheck): cheap assertions on internal state (FIFO occupancy
// and pointer bounds, entry-level ranges) that panic with a guard.Violation
// when an engine bug or memory corruption silently breaks the structure.
// Discovered structurally by the simulation layers, so trackers without
// self-checks need no stub.
type SelfChecker interface {
	// SetSelfCheck enables or disables the tracker's invariant guards.
	SetSelfCheck(on bool)
}
